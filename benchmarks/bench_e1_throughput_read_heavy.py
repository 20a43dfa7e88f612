"""E1 — Throughput vs. client count, read-heavy workload (YCSB-B, 95/5).

Paper shape: ChainReaction's prefix reads spread load over all R chain
positions, so its read-heavy throughput clearly exceeds classic chain
replication (tail-only reads) and approaches the eventually-consistent
upper bound; the quorum store pays multiple replica contacts per read
and lands lowest. The ablation row (ChainReaction without prefix reads)
collapses back to chain-replication behaviour, isolating where the win
comes from (DESIGN.md §6.3).
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import throughput_sweep, run_ycsb
from repro.metrics import render_table

PROTOCOLS = ("chainreaction", "chain", "eventual", "quorum")


def test_e1_read_heavy_throughput(scale):
    def experiment():
        rows = throughput_sweep(PROTOCOLS, "B", scale)
        ablation = run_ycsb(
            "chainreaction",
            "B",
            max(scale.client_counts),
            scale,
            overrides={"allow_prefix_reads": False},
        )
        ab_row = ablation.summary_row()
        ab_row["protocol"] = "cr-no-prefix"
        rows.append(ab_row)
        return rows

    rows = run_once(experiment)
    print()
    print(
        render_table(
            ["protocol", "clients", "ops/s", "get p50 ms", "put p50 ms", "errors"],
            [
                (
                    r["protocol"],
                    r["clients"],
                    r["throughput_ops_s"],
                    r["get_p50_ms"],
                    r["put_p50_ms"],
                    r["errors"],
                )
                for r in rows
            ],
            title="E1: read-heavy (95/5) throughput vs clients",
        )
    )

    peak = {}
    for r in rows:
        peak[r["protocol"]] = max(peak.get(r["protocol"], 0.0), r["throughput_ops_s"])
    # Shape assertions from the paper: CR beats chain clearly on reads...
    assert peak["chainreaction"] > 1.3 * peak["chain"], peak
    # ...and the no-prefix ablation explains the gap (within noise of chain).
    assert peak["cr-no-prefix"] < 0.8 * peak["chainreaction"], peak
    for r in rows:
        assert r["errors"] == 0, f"unexpected op failures: {r}"
