"""E8 — Client metadata overhead (DESIGN.md §6.2).

Paper shape: ChainReaction's dependency table stays *small and bounded*
in steady state: entries exist only for versions not yet DC-stable, and
every put collapses the table to a single entry. The ablation that
disables collapse-on-put accumulates one entry per key ever touched —
metadata grows with the session's working set instead of its unstable
frontier, exactly the overhead the paper's design avoids.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import run_ycsb
from repro.metrics import render_table


def test_e8_metadata_overhead(scale):
    def experiment():
        collapsing = run_ycsb(
            "chainreaction", "A", scale.latency_clients, scale, record_history=False
        )
        accumulating = run_ycsb(
            "chainreaction",
            "A",
            scale.latency_clients,
            scale,
            record_history=False,
            overrides={"collapse_deps_on_put": False},
        )
        return collapsing, accumulating

    collapsing, accumulating = run_once(experiment)
    rows = [
        (
            "collapse-on-put (paper)",
            collapsing.metadata_bytes.mean(),
            collapsing.metadata_bytes.percentile(95),
            collapsing.metadata_bytes.max,
        ),
        (
            "accumulate (ablation)",
            accumulating.metadata_bytes.mean(),
            accumulating.metadata_bytes.percentile(95),
            accumulating.metadata_bytes.max,
        ),
    ]
    print()
    print(
        render_table(
            ["mode", "mean B", "p95 B", "max B"],
            rows,
            title="E8: per-client dependency metadata (bytes)",
        )
    )
    # The collapse rule keeps metadata an order of magnitude smaller.
    assert collapsing.metadata_bytes.mean() * 5 < accumulating.metadata_bytes.mean(), rows
    # Steady-state metadata is a handful of entries, not the keyspace.
    assert collapsing.metadata_bytes.percentile(95) < 200, rows
