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
