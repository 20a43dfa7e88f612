"""Cross-shard determinism: workers=1 vs workers=N must be bit-identical.

The acceptance criterion of the parallel engine: sharding one logical
experiment over any number of worker processes may change *wall-clock*
behaviour only. Every run here asserts the full ``Network.send`` trace
digest (time | src | dst | type | size per send, per shard, merged in
site order) and the merged ``NetworkStats`` counters are equal to the
single-process arm — plain and under a fault campaign whose partition
spans a shard boundary.

Runs are cached per (campaign, workers): each pairwise test reuses the
same ParallelRunResult rather than re-simulating.
"""

import functools

import pytest

from repro.cluster.failure import FaultEvent
from repro.sim.shard import ExperimentSpec, ShardedSimulator
from repro.workload.ycsb import WorkloadSpec

SITES = ("dc0", "dc1", "dc2", "dc3")

FAULT_CAMPAIGN = (
    # Crash a chain head mid-measurement, partition across a shard
    # boundary, then heal and recover before the drain.
    FaultEvent(0.30, "crash", "dc1:s1"),
    FaultEvent(0.40, "partition", "dc0", "dc2"),
    FaultEvent(0.65, "heal", "dc0", "dc2"),
    FaultEvent(0.75, "recover", "dc1:s1"),
)


def make_spec(faults=()) -> ExperimentSpec:
    workload = WorkloadSpec(
        "parallel-determinism",
        read_proportion=0.6,
        update_proportion=0.4,
        insert_proportion=0.0,
        record_count=50,
        distribution="zipfian",
        value_size=32,
    )
    return ExperimentSpec(
        workload=workload,
        protocol="chainreaction",
        sites=SITES,
        servers_per_site=3,
        chain_length=3,
        ack_k=2,
        seed=7,
        n_clients=6,
        duration=0.5,
        warmup=0.15,
        drain=0.45,
        faults=tuple(faults),
    )


@functools.lru_cache(maxsize=None)
def run_once(faulted: bool, workers: int):
    spec = make_spec(FAULT_CAMPAIGN if faulted else ())
    return ShardedSimulator(spec, workers=workers).run()


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faults"])
@pytest.mark.parametrize("workers", [2, 4])
class TestWorkerCountInvariance:
    def test_trace_digest_identical(self, faulted, workers):
        base = run_once(faulted, 1)
        parallel = run_once(faulted, workers)
        assert parallel.workers == workers
        assert parallel.trace_digest == base.trace_digest

    def test_network_stats_identical(self, faulted, workers):
        base = run_once(faulted, 1)
        parallel = run_once(faulted, workers)
        assert parallel.stats == base.stats

    def test_outcome_counters_identical(self, faulted, workers):
        base = run_once(faulted, 1)
        parallel = run_once(faulted, workers)
        assert parallel.ops_completed == base.ops_completed
        assert parallel.errors == base.errors
        assert parallel.events_processed == base.events_processed
        assert parallel.envelopes_exchanged == base.envelopes_exchanged
        assert parallel.rounds == base.rounds

    def test_per_site_digests_identical(self, faulted, workers):
        base = run_once(faulted, 1)
        parallel = run_once(faulted, workers)
        for site in SITES:
            assert (
                parallel.per_site[site].digest == base.per_site[site].digest
            ), f"shard {site} diverged"


class TestRunShape:
    """Sanity on the baseline runs the invariance tests compare against."""

    def test_plain_run_does_work(self):
        result = run_once(False, 1)
        assert result.ops_completed > 0
        assert result.rounds > 0
        assert result.envelopes_exchanged > 0  # geo traffic crossed shards
        assert result.n_clients == 6

    def test_fault_campaign_drops_messages(self):
        plain = run_once(False, 1)
        faulted = run_once(True, 1)
        assert faulted.stats.messages_dropped > plain.stats.messages_dropped
        assert faulted.trace_digest != plain.trace_digest

    def test_odd_worker_count_also_identical(self):
        # 3 workers over 4 shards: uneven round-robin assignment.
        base = run_once(False, 1)
        assert run_once(False, 3).trace_digest == base.trace_digest


def test_node_partition_wipe_and_slow_link_are_worker_count_invariant():
    # The events a campaign can state beyond site partitions: a wiping
    # crash, a partition between two addresses on different shards, and
    # a slowed cross-shard link.
    faults = (
        FaultEvent(0.30, "crash", "dc1:s1", wipe=True),
        FaultEvent(0.35, "slow", "dc1", "dc3", factor=3.0),
        FaultEvent(0.40, "partition", "dc0:geoproxy", "dc2:geoproxy"),
        FaultEvent(0.55, "restore", "dc1", "dc3"),
        FaultEvent(0.65, "heal", "dc0:geoproxy", "dc2:geoproxy"),
        FaultEvent(0.75, "recover", "dc1:s1"),
    )
    base = ShardedSimulator(make_spec(faults), workers=1).run()
    parallel = ShardedSimulator(make_spec(faults), workers=2).run()
    assert parallel.trace_digest == base.trace_digest
    assert parallel.stats == base.stats
    assert base.stats.messages_dropped > run_once(False, 1).stats.messages_dropped
    assert base.trace_digest != run_once(True, 1).trace_digest
