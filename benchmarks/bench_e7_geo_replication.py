"""E7 — Geo-replication: two datacenters over a WAN.

Paper shape: client-visible latency stays at LAN scale in both DCs —
geo-replication is asynchronous — while remote-update visibility tracks
the WAN one-way delay (plus local stabilisation), and global stability
tracks roughly a WAN round trip. Causal delivery adds no steady-state
visibility penalty because dependencies are almost always already
stable when updates arrive.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.bench import GEO_SITES, run_ycsb
from repro.metrics import render_table

WAN_MEDIAN = 0.040  # seconds, one-way


def test_e7_geo_two_datacenters(scale):
    def experiment():
        return run_ycsb(
            "chainreaction",
            "A",
            scale.latency_clients,
            scale,
            sites=GEO_SITES,
        )

    result = run_once(experiment)
    stats = result.store.protocol_stats()
    visibility = stats["visibility_samples"]
    global_stability = stats["global_stability_samples"]
    assert visibility, "no remote updates were applied"
    assert global_stability, "no global stability acks arrived"
    visibility.sort()
    global_stability.sort()

    def pct(samples, p):
        return samples[min(int(len(samples) * p / 100), len(samples) - 1)] * 1000

    print()
    print(
        render_table(
            ["metric", "p50 ms", "p95 ms", "n"],
            [
                ("client get latency", result.get_latency.percentile(50) * 1000,
                 result.get_latency.percentile(95) * 1000, result.get_latency.count),
                ("client put latency", result.put_latency.percentile(50) * 1000,
                 result.put_latency.percentile(95) * 1000, result.put_latency.count),
                ("remote visibility", pct(visibility, 50), pct(visibility, 95), len(visibility)),
                ("global stability", pct(global_stability, 50), pct(global_stability, 95),
                 len(global_stability)),
            ],
            title="E7: ChainReaction across 2 DCs (WAN ~40ms one-way)",
        )
    )

    # Local operations never pay the WAN.
    assert result.get_latency.percentile(95) < WAN_MEDIAN / 2
    # Remote visibility is dominated by the WAN one-way delay...
    assert pct(visibility, 50) / 1000 > WAN_MEDIAN * 0.8
    assert pct(visibility, 50) / 1000 < WAN_MEDIAN * 4
    # ...and global stability needs at least a full WAN round trip.
    assert pct(global_stability, 50) / 1000 > 1.5 * WAN_MEDIAN
    assert result.errors == 0
