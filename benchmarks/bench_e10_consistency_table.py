"""E10 — Consistency anomaly table across protocols.

Paper shape (the motivation table): under a geo-replicated causality
probe, the eventually-consistent store and a non-overlapping-quorum
store serve causal anomalies, while ChainReaction, classic chain
replication, and the COPS-like store serve none. The ablation row shows
ChainReaction with causal delivery of remote updates disabled — the
anomalies come right back, isolating where the guarantee comes from
(DESIGN.md §6.4).
"""

from __future__ import annotations

from bench_utils import run_once

from repro.baselines import build_store
from repro.bench import GEO_SITES, consistency_table
from repro.checker import check_causal
from repro.metrics import render_table
from repro.net import wan_latency
from repro.workload import ProbeConfig, run_relay_probe

PROTOCOLS = ("chainreaction", "chain", "cops", "eventual", "quorum")

#: Asymmetric triangle for the ablation: the direct dc0→dc2 link is much
#: slower than the dc0→dc1→dc2 path, so a transitively-dependent write
#: can overtake its dependency unless delivery is causally gated.
RELAY_SITES = ("dc0", "dc1", "dc2")


def _relay_history(geo_causal_delivery: bool, scale):
    store = build_store(
        "chainreaction",
        sites=RELAY_SITES,
        servers_per_site=scale.servers_per_site,
        chain_length=scale.chain_length,
        ack_k=scale.ack_k,
        seed=scale.seed,
        overrides={"geo_causal_delivery": geo_causal_delivery},
    )
    store.network.set_link("dc0", "dc2", wan_latency(0.150))
    store.network.set_link("dc0", "dc1", wan_latency(0.010))
    store.network.set_link("dc1", "dc2", wan_latency(0.010))
    return run_relay_probe(
        store, ProbeConfig(n_pairs=scale.probe_pairs // 2 + 1, rounds=scale.probe_rounds // 2 + 1)
    )


def test_e10_anomaly_table(scale):
    def experiment():
        rows = consistency_table(PROTOCOLS, scale, sites=GEO_SITES)
        # Ablation: apply remote updates on arrival vs. causally gated,
        # under the transitive 3-DC relay that FIFO shipping can't save.
        for label, flag in (("cr-causal-geo", True), ("cr-no-causal-geo", False)):
            history = _relay_history(flag, scale)
            rows.append(
                {
                    "protocol": label,
                    "operations": len(history),
                    "causal": len(check_causal(history)),
                    "read_your_writes": "-",
                    "monotonic_reads": "-",
                    "monotonic_writes": "-",
                    "writes_follow_reads": "-",
                }
            )
        return rows

    rows = run_once(experiment)
    print()
    print(
        render_table(
            ["protocol", "ops", "causal", "RYW", "MR", "MW", "WFR"],
            [
                (
                    r["protocol"],
                    r["operations"],
                    r["causal"],
                    r["read_your_writes"],
                    r["monotonic_reads"],
                    r["monotonic_writes"],
                    r["writes_follow_reads"],
                )
                for r in rows
            ],
            title="E10: consistency anomalies under the geo causality probe",
        )
    )
    by_protocol = {r["protocol"]: r for r in rows}
    # Causal+ systems serve zero anomalies.
    for protocol in ("chainreaction", "chain", "cops", "cr-causal-geo"):
        assert by_protocol[protocol]["causal"] == 0, by_protocol[protocol]
    # The weak baselines do not.
    weak_total = by_protocol["eventual"]["causal"] + by_protocol["quorum"]["causal"]
    assert weak_total > 0, by_protocol
    # And the guarantee demonstrably comes from causal geo-delivery.
    assert by_protocol["cr-no-causal-geo"]["causal"] > 0, by_protocol
