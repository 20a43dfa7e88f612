"""E6 — Scalability with the number of servers.

Paper shape: with offered load scaled proportionally to the cluster
(fixed clients per server), throughput grows close to linearly for
ChainReaction — consistent hashing spreads chains, and prefix reads
spread each chain — while classic chain replication scales too but from
a lower per-server ceiling (its hot keys still bottleneck one tail).
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import run_ycsb
from repro.metrics import render_table

CLIENTS_PER_SERVER = 8


def test_e6_server_scalability(scale):
    def experiment():
        rows = []
        for protocol in ("chainreaction", "chain"):
            for n_servers in scale.scalability_servers:
                result = run_ycsb(
                    protocol,
                    "B",
                    CLIENTS_PER_SERVER * n_servers,
                    scale,
                    servers_per_site=n_servers,
                    # Uniform keys isolate cluster-size scaling; zipfian
                    # skew pins the hot key to R servers at any size
                    # (that effect is E1's subject, not E6's).
                    distribution="uniform",
                )
                rows.append((protocol, n_servers, result.throughput, result.errors))
        return rows

    rows = run_once(experiment)
    print()
    print(
        render_table(
            ["protocol", "servers", "ops/s", "errors"],
            rows,
            title=f"E6: scalability, {CLIENTS_PER_SERVER} clients/server, read-heavy",
        )
    )
    by_protocol = {}
    for protocol, n_servers, tput, errors in rows:
        by_protocol.setdefault(protocol, {})[n_servers] = tput
        assert errors == 0
    smallest = min(scale.scalability_servers)
    largest = max(scale.scalability_servers)
    growth = largest / smallest
    for protocol, points in by_protocol.items():
        speedup = points[largest] / points[smallest]
        # Within 40% of linear scaling on the simulated substrate.
        assert speedup > 0.6 * growth, (protocol, points)
    # ChainReaction's per-server ceiling stays above chain's at every size.
    for n_servers in scale.scalability_servers:
        assert by_protocol["chainreaction"][n_servers] > by_protocol["chain"][n_servers]
