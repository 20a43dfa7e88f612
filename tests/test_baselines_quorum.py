"""Tests for the quorum-replicated baseline."""

import pytest

from helpers import run_op

from repro.baselines import BaselineConfig, QuorumStore
from repro.baselines.common import KvGet
from repro.storage.version import VersionVector


def make_quorum(**overrides):
    defaults = dict(
        sites=("dc0",), servers_per_site=4, chain_length=3,
        write_quorum=2, read_quorum=2, seed=7, service_time=0.0,
    )
    defaults.update(overrides)
    return QuorumStore(BaselineConfig(**defaults))


class TestBasicOps:
    def test_put_then_get(self):
        store = make_quorum()
        s = store.session()
        run_op(store, s.put("k", "v"))
        assert run_op(store, s.get("k")).value == "v"

    def test_delete(self):
        store = make_quorum()
        s = store.session()
        run_op(store, s.put("k", "v"))
        run_op(store, s.delete("k"))
        assert run_op(store, s.get("k")).value is None

    def test_get_missing(self):
        store = make_quorum()
        s = store.session()
        assert run_op(store, s.get("ghost")).value is None


class TestQuorumSemantics:
    def test_write_waits_for_w_replicas(self):
        store = make_quorum(write_quorum=3)
        s = store.session()
        fut = s.put("k", "v")
        run_op(store, fut)
        view = store.managers["dc0"].view
        present = sum(
            1
            for name in view.chain_for("k")
            if store._node("dc0", name).store.get("k") is not None
        )
        assert present >= 3

    def test_overlapping_quorums_read_your_writes(self):
        """W=2, R=2 over N=3 intersect: every read sees the session's
        latest write, no matter which coordinator it lands on."""
        store = make_quorum(write_quorum=2, read_quorum=2)
        s = store.session()
        for i in range(25):
            run_op(store, s.put("k", f"v{i}"))
            assert run_op(store, s.get("k")).value == f"v{i}"

    def test_non_overlapping_quorums_can_go_stale(self):
        """W=1, R=1 with frozen replication: a read from another replica
        misses the write — the configuration E10 penalises."""
        store = make_quorum(write_quorum=1, read_quorum=1)
        # Replication rides replica writes; block those so only the
        # coordinator that took the write holds it.
        store.network.add_filter(
            lambda _s, _d, m: m.type_name != "q-replica-write"
        )
        s = store.session()
        run_op(store, s.put("k", "v"))
        stale = 0
        for _ in range(30):
            if run_op(store, s.get("k")).value is None:
                stale += 1
        assert stale > 0

    def test_read_repair_heals_stale_replicas(self):
        store = make_quorum(write_quorum=1, read_quorum=3)
        # Stop direct replication; only read repair can spread the write.
        store.network.add_filter(
            lambda _s, _d, m: m.type_name != "q-replica-write"
        )
        s = store.session()
        run_op(store, s.put("k", "v"))
        # A full-quorum read triggers repair of the replicas that answered stale.
        for _ in range(10):
            run_op(store, s.get("k"))
        store.network.clear_filters()
        store.run(until=store.sim.now + 1.0)
        view = store.managers["dc0"].view
        present = sum(
            1
            for name in view.chain_for("k")
            if store._node("dc0", name).store.get("k") is not None
        )
        assert present == 3
        assert sum(n.read_repairs for n in store.servers()) > 0

    def test_newest_version_wins_reads(self):
        store = make_quorum()
        s = store.session()
        run_op(store, s.put("k", "old"))
        run_op(store, s.put("k", "new"))
        for _ in range(10):
            assert run_op(store, s.get("k")).value == "new"


class TestReadRepairTarget:
    def test_repair_goes_to_the_stale_peer_when_replies_arrive_out_of_ring_order(self):
        """The coordinator gathers replies in completion order; the one
        repaired is the peer whose reply was stale, not the one at that
        reply's index in ring order."""
        store = make_quorum(write_quorum=1, read_quorum=3)
        chain = store.managers["dc0"].view.chain_for("k")
        coordinator = store._node("dc0", chain[0])
        peers = coordinator._local_peers("k")  # ring order
        fresh, stale = (store._node("dc0", peer.node) for peer in peers)
        version = VersionVector({"dc0": 1})
        for node in (coordinator, fresh):
            node.store.apply("k", "v", version)

        held, repaired = [], []

        def divert(src, dst, msg):
            if dst == coordinator.address and msg.type_name == "q-replica-record":
                held.append((src, dst, msg))
                return True
            return False

        answers = []

        def watch(src, dst, msg):
            if msg.type_name == "ev-replicate":
                repaired.append(dst)
            elif msg.type_name == "kv-reply":
                answers.append(msg)
            return True

        store.network.set_divert(divert)
        store.network.add_filter(watch)
        coordinator.on_kv_get(KvGet(request_id=1, key="k"), store.session().address)
        while len(held) < 2:
            assert store.sim.step()
        assert [src for src, _, _ in held] == peers
        for src, dst, msg in reversed(held):  # peers[1]'s reply completes first
            store.network.inject_now(src, dst, msg)
        store.network.set_divert(None)
        store.run(until=store.sim.now + 0.5)

        assert [answer.value for answer in answers] == ["v"]
        assert repaired == [peers[1]]
        assert coordinator.read_repairs == 1
        assert stale.store.version_of("k") == version
