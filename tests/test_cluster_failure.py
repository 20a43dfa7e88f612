"""Unit tests for the one fault form: FaultEvent + apply_fault."""

import pytest

from repro.baselines.registry import build_store
from repro.cluster import FaultEvent, apply_fault, schedule_faults
from repro.errors import ConfigError
from repro.faults.campaign import FaultSpec
from repro.net import Address


@pytest.fixture
def store():
    return build_store("chainreaction", sites=("dc0", "dc1"), servers_per_site=3)


def server(store, name="s1"):
    return store._node("dc0", name)


class TestCrashSchedule:
    def test_crash_at_time(self, store):
        schedule_faults(store, [FaultEvent(1.0, "crash", "dc0:s1")])
        store.run(until=0.9)
        assert not server(store).crashed
        store.run(until=1.1)
        assert server(store).crashed

    def test_recovery_at_time(self, store):
        log = schedule_faults(
            store, [FaultEvent(1.0, "crash", "dc0:s1"), FaultEvent(2.0, "recover", "dc0:s1")]
        )
        store.run(until=3.0)
        assert not server(store).crashed
        assert log == ["t=1.000 crash dc0:s1", "t=2.000 recover dc0:s1"]

    def test_recover_before_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="crash", at=2.0, target="dc0:s1", until=1.0)

    def test_wipe_storage(self, store):
        store.preload({"k": 1})  # three servers, chains of three: s1 holds k
        assert len(server(store).store) == 1
        schedule_faults(store, [FaultEvent(1.0, "crash", "dc0:s1", wipe=True)])
        store.run(until=1.5)
        assert len(server(store).store) == 0

    def test_peer_shard_actor_is_only_marked_down(self):
        shard = build_store(
            "chainreaction", sites=("dc0", "dc1"), servers_per_site=3, local_sites=("dc0",)
        )
        peer = Address("dc1", "s0")
        apply_fault(shard, FaultEvent(0.0, "crash", "dc1:s0"))
        assert peer in shard.network._down
        apply_fault(shard, FaultEvent(0.0, "recover", "dc1:s0"))
        assert peer not in shard.network._down


class TestPartitionSchedule:
    def test_partition_and_heal(self, store):
        schedule_faults(
            store, [FaultEvent(1.0, "partition", "dc0", "dc1"), FaultEvent(2.0, "heal", "dc0", "dc1")]
        )
        net = store.network
        store.run(until=1.5)
        assert net._is_blocked(Address("dc0", "x"), Address("dc1", "y"))
        store.run(until=2.5)
        assert not net._is_blocked(Address("dc0", "x"), Address("dc1", "y"))

    def test_heal_before_partition_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="partition", at=2.0, target="dc0|dc1", until=1.0)


class TestDeclarativeSchedule:
    def test_apply_mixed_events(self, store):
        log = schedule_faults(
            store,
            [
                FaultEvent(1.0, "crash", "dc0:s1"),
                FaultEvent(2.0, "recover", "dc0:s1"),
                FaultEvent(1.5, "partition", "dc0", "dc1"),
                FaultEvent(2.5, "heal", "dc0", "dc1"),
                FaultEvent(1.2, "slow", "dc0", "dc0", factor=20.0),
                FaultEvent(1.4, "restore", "dc0", "dc0"),
            ],
        )
        store.run(until=3.0)
        assert log == [
            "t=1.000 crash dc0:s1",
            "t=1.200 slow-link dc0~dc0 x20.0",
            "t=1.400 restore-link dc0~dc0",
            "t=1.500 partition dc0 | dc1",
            "t=2.000 recover dc0:s1",
            "t=2.500 heal dc0 | dc1",
        ]
        assert store.network.site_model("dc0", "dc0") is store.network._lan

    def test_log_is_chronological(self, store):
        log = schedule_faults(
            store,
            [FaultEvent(2.0, "crash", "dc0:s1"), FaultEvent(1.0, "partition", "dc0", "dc1")],
        )
        store.run(until=3.0)
        assert "partition" in log[0]
        assert "crash" in log[1]


class TestUnknownEndpoints:
    """A fault naming an endpoint the topology lacks fails before the
    run: ``Network.block`` would take any string, and a crash of an
    unknown address would only mark it down."""

    @pytest.mark.parametrize(
        "event",
        [
            FaultEvent(1.0, "crash", "dc9:s1"),
            FaultEvent(1.0, "crash", "dc0:s7"),
            FaultEvent(1.0, "partition", "dc0", "dc9"),
            FaultEvent(1.0, "partition", "dc0:client1", "dc1"),
            FaultEvent(1.0, "slow", "dc0", "dc1:s0"),
        ],
        ids=["crash-site", "crash-node", "partition-site", "partition-node", "slow-node"],
    )
    def test_schedules_nothing(self, store, event):
        good = FaultEvent(0.5, "crash", "dc0:s1")
        pending = store.sim.pending_events()
        with pytest.raises(ConfigError, match=r"unknown (site|node)"):
            schedule_faults(store, [good, event])
        assert store.sim.pending_events() == pending
        store.run(until=1.5)
        assert not server(store).crashed  # the good event was not scheduled

    def test_the_error_names_the_known_sites(self, store):
        with pytest.raises(ConfigError, match=r"known sites: \['dc0', 'dc1'\]"):
            schedule_faults(store, [FaultEvent(1.0, "partition", "dc0", "dc9")])

    def test_known_endpoints_pass(self, store):
        log = schedule_faults(
            store,
            [
                FaultEvent(1.0, "partition", "dc0:geoproxy", "dc1:s2"),
                FaultEvent(1.0, "crash", "dc1:geoproxy"),
            ],
        )
        store.run(until=1.5)
        assert log == ["t=1.000 partition dc0:geoproxy | dc1:s2", "t=1.000 crash dc1:geoproxy"]
        assert store.proxies["dc1"].crashed

    def test_a_baseline_has_no_geoproxy(self):
        eventual = build_store("eventual", sites=("dc0",), servers_per_site=3)
        with pytest.raises(ConfigError, match="unknown node"):
            schedule_faults(eventual, [FaultEvent(1.0, "crash", "dc0:geoproxy")])

    def test_campaign_partition_of_an_unknown_site(self):
        from repro.faults import campaign, run_campaign

        spec = campaign("partition-sites")
        bad = spec.with_updates(
            events=(FaultSpec(kind="partition", at=0.7, target="dc0|dc9", until=1.4),)
        )
        with pytest.raises(ConfigError, match="unknown site 'dc9'"):
            run_campaign(bad, seed=42)

    @pytest.mark.parametrize(
        "fault",
        [FaultEvent(0.2, "crash", "dc9:s1"), FaultEvent(0.2, "partition", "dc0", "dc9")],
        ids=["crash", "partition"],
    )
    def test_experiment_spec(self, fault):
        from repro.sim.shard import ExperimentSpec, ShardedSimulator
        from repro.workload.ycsb import WorkloadSpec

        spec = ExperimentSpec(
            workload=WorkloadSpec("tiny", read_proportion=0.5, update_proportion=0.5, record_count=10),
            servers_per_site=3,
            n_clients=2,
            duration=0.3,
            warmup=0.1,
            drain=0.1,
            faults=(fault,),
        )
        with pytest.raises(ConfigError, match="unknown site 'dc9'"):
            ShardedSimulator(spec, workers=1).run()
