"""E2 — Throughput vs. client count, write-heavy workload (YCSB-A, 50/50).

Paper shape: with half the operations writing, every chain protocol
pays R-fold propagation, so the gap to the eventually-consistent upper
bound widens for everyone; ChainReaction still beats classic chain
replication because (a) its reads spread over the chain and (b) its
puts acknowledge at position k-1 < R-1.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import throughput_sweep
from repro.metrics import render_table

PROTOCOLS = ("chainreaction", "chain", "eventual", "quorum")


def test_e2_write_heavy_throughput(scale):
    rows = run_once(lambda: throughput_sweep(PROTOCOLS, "A", scale))
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
            title="E2: write-heavy (50/50) throughput vs clients",
        )
    )
    peak = {}
    for r in rows:
        peak[r["protocol"]] = max(peak.get(r["protocol"], 0.0), r["throughput_ops_s"])
    assert peak["chainreaction"] > peak["chain"], peak
    assert peak["eventual"] >= peak["chainreaction"], peak
    for r in rows:
        assert r["errors"] == 0, f"unexpected op failures: {r}"
