"""E3 — GET latency distribution under a read-heavy steady state.

Paper shape: at moderate load all systems serve reads in one LAN round
trip, but under the same client count classic chain replication shows a
heavier tail than ChainReaction because the per-key tail replica
queues; the quorum store's reads are strictly slower (coordinator plus
replica round trip).
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import latency_run
from repro.metrics import render_table

PROTOCOLS = ("chainreaction", "chain", "eventual", "quorum")


def test_e3_get_latency_distribution(scale):
    results = run_once(lambda: latency_run(PROTOCOLS, "B", scale))
    rows = []
    for protocol, result in results.items():
        s = result.get_latency.summary()
        rows.append(
            (protocol, s["count"], s["mean_ms"], s["p50_ms"], s["p95_ms"], s["p99_ms"])
        )
    print()
    print(
        render_table(
            ["protocol", "reads", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
            rows,
            title=f"E3: GET latency, {scale.latency_clients} clients, read-heavy",
        )
    )
    p99 = {protocol: r.get_latency.percentile(99) for protocol, r in results.items()}
    p50 = {protocol: r.get_latency.percentile(50) for protocol, r in results.items()}
    # Quorum reads pay at least one extra replica round trip.
    assert p50["quorum"] > 1.4 * p50["chainreaction"], p50
    # Chain's tail-read hot spot shows up in the tail of the distribution.
    assert p99["chain"] >= p99["chainreaction"], p99
