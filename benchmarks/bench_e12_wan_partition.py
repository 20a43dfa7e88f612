"""E12 (extension) — availability under WAN partition.

The motivation ChainReaction shares with all causal+ systems: because
geo-replication is asynchronous, a WAN partition costs **nothing** for
local operations — both datacenters keep serving reads and writes at
full speed — and once the partition heals, the update streams drain and
every replica converges. A strongly consistent geo-store would have to
block (or lose) one side for the duration.

Shape: per-DC throughput during the partition stays within noise of the
pre-partition rate; remote visibility for partition-era writes ≈ heal
time + WAN; convergence holds afterwards.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.baselines import build_store
from repro.checker import await_convergence
from repro.cluster.failure import FaultEvent, schedule_faults
from repro.metrics import render_table
from repro.workload import WorkloadRunner, workload

PARTITION_AT = 0.8
HEAL_AT = 2.0
RUN_FOR = 3.0


def test_e12_wan_partition(scale):
    def experiment():
        store = build_store(
            "chainreaction",
            sites=("dc0", "dc1"),
            servers_per_site=scale.servers_per_site,
            chain_length=scale.chain_length,
            ack_k=scale.ack_k,
            seed=scale.seed,
        )
        schedule_faults(
            store,
            [
                FaultEvent(PARTITION_AT, "partition", "dc0", "dc1"),
                FaultEvent(HEAL_AT, "heal", "dc0", "dc1"),
            ],
        )
        spec = workload("A", record_count=scale.record_count, value_size=scale.value_size)
        runner = WorkloadRunner(
            store, spec, n_clients=scale.latency_clients, duration=RUN_FOR, warmup=0.2
        )
        result = runner.run()
        keys = [spec.key(i) for i in range(scale.record_count)]
        report = await_convergence(store, keys, max_extra_time=20.0)
        return store, result, report

    store, result, report = run_once(experiment)
    before = result.timeline.rate_between(0.3, PARTITION_AT)
    during = result.timeline.rate_between(PARTITION_AT + 0.1, HEAL_AT)
    after = result.timeline.rate_between(HEAL_AT + 0.2, 0.2 + RUN_FOR)

    print()
    print(
        render_table(
            ["phase", "ops/s"],
            [
                ("before partition", before),
                ("during partition (1.2s)", during),
                ("after heal", after),
            ],
            title="E12: client throughput through a WAN partition",
        )
    )
    print(f"errors: {result.errors}; converged after heal: {report.converged}")

    # Availability: the partition is invisible to local operations.
    assert during > 0.9 * before, (before, during)
    assert result.errors == 0
    # Convergence: both DCs reconcile once the WAN returns.
    assert report.converged, str(report)
