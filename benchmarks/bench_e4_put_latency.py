"""E4 — PUT latency distribution under a read-heavy steady state.

Paper shape: put latency orders the systems by how much work sits
between the client and the acknowledgement — eventual (local write)
fastest, then ChainReaction (k = 2 chain positions), then quorum
(W replica round trips), then classic chain replication (full chain of
R before the tail acks). The mix is read-heavy so each put's latency is
its own acknowledgement path; under write-heavy streams every causal
store (by design) also waits for the previous write's dependencies,
which E2 captures instead.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import latency_run
from repro.metrics import render_table

PROTOCOLS = ("chainreaction", "chain", "eventual", "quorum")


def test_e4_put_latency_distribution(scale):
    results = run_once(lambda: latency_run(PROTOCOLS, "B", scale))
    rows = []
    for protocol, result in results.items():
        s = result.put_latency.summary()
        rows.append(
            (protocol, s["count"], s["mean_ms"], s["p50_ms"], s["p95_ms"], s["p99_ms"])
        )
    print()
    print(
        render_table(
            ["protocol", "writes", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
            rows,
            title=f"E4: PUT latency, {scale.latency_clients} clients, read-heavy",
        )
    )
    p50 = {protocol: r.put_latency.percentile(50) for protocol, r in results.items()}
    # eventual acks locally; everything else must be slower.
    assert p50["eventual"] < p50["chainreaction"], p50
    # k=2 ack beats waiting for the full chain of R=3.
    assert p50["chainreaction"] < p50["chain"], p50
