"""E5 — The k parameter: eager-ack prefix length (DESIGN.md §6.1).

Paper shape: k trades write latency against durability and immediate
read fan-out. Put latency grows with k (more chain positions before the
ack); k = R makes every write immediately DC-stable (reads may go
anywhere at once, and the dependency table stays empty), while small k
acks sooner and lets stability catch up in the background.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import run_ycsb
from repro.metrics import render_table


def test_e5_k_parameter_sweep(scale):
    def experiment():
        # Read-heavy mix: with writes rare, a put's latency is its own
        # k-hop acknowledgement path, not dependency-wait coupling with
        # the client's previous write — the effect the figure isolates.
        results = {}
        for k in range(1, scale.chain_length + 1):
            results[k] = run_ycsb(
                "chainreaction", "B", scale.latency_clients, scale, ack_k=k
            )
        return results

    results = run_once(experiment)
    rows = []
    for k, result in sorted(results.items()):
        rows.append(
            (
                k,
                result.throughput,
                result.put_latency.percentile(50) * 1000,
                result.put_latency.percentile(99) * 1000,
                result.get_latency.percentile(50) * 1000,
                result.metadata_bytes.mean(),
            )
        )
    print()
    print(
        render_table(
            ["k", "ops/s", "put p50 ms", "put p99 ms", "get p50 ms", "meta B"],
            rows,
            title=f"E5: effect of k (R={scale.chain_length}), read-heavy",
        )
    )
    p50 = {k: r.put_latency.percentile(50) for k, r in results.items()}
    # Monotone latency in k: each extra eager hop costs propagation time.
    ks = sorted(p50)
    for a, b in zip(ks, ks[1:]):
        assert p50[a] <= p50[b] * 1.10, p50  # allow 10% noise
    assert p50[ks[-1]] > 1.3 * p50[ks[0]], p50
    # k=R writes are born stable: the client dependency table stays empty.
    assert results[scale.chain_length].metadata_bytes.mean() < results[1].metadata_bytes.mean() + 1e-9
