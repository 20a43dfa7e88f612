"""Unit tests for the network fabric: delivery, FIFO, partitions, stats."""

import dataclasses
import os
import pickle
import subprocess
import sys
from typing import Any, ClassVar

import pytest

from repro.errors import AddressUnknownError
from repro.net import Address, FixedLatency, Message, Network, NetworkStats, UniformLatency
from repro.sim import Simulator


@dataclasses.dataclass(frozen=True)
class Note(Message):
    type_name: ClassVar[str] = "note"
    body: Any = None


A = Address("dc0", "a")
B = Address("dc0", "b")
C = Address("dc1", "c")


def wire(sim, lan=None, wan=None):
    net = Network(sim, lan=lan or FixedLatency(0.001), wan=wan or FixedLatency(0.010))
    inboxes = {}
    for addr in (A, B, C):
        inboxes[addr] = []
        net.register(addr, lambda msg, src, _in=inboxes[addr]: _in.append((msg, src)))
    return net, inboxes


class TestDelivery:
    def test_message_arrives_after_link_latency(self, sim):
        net, inboxes = wire(sim)
        net.send(A, B, Note(body="hi"))
        sim.run()
        assert sim.now == pytest.approx(0.001)
        assert inboxes[B][0][0].body == "hi"
        assert inboxes[B][0][1] == A

    def test_cross_site_uses_wan_model(self, sim):
        net, inboxes = wire(sim)
        net.send(A, C, Note(body="far"))
        sim.run()
        assert sim.now == pytest.approx(0.010)

    def test_link_override(self, sim):
        net, inboxes = wire(sim)
        net.set_link("dc0", "dc1", FixedLatency(0.5))
        net.send(A, C, Note())
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_unknown_destination_raises(self, sim):
        net, _ = wire(sim)
        with pytest.raises(AddressUnknownError):
            net.send(A, Address("dc0", "ghost"), Note())

    def test_unregistered_destination_drops_in_flight(self, sim):
        net, inboxes = wire(sim)
        net.send(A, B, Note())
        net.unregister(B)
        sim.run()
        assert inboxes[B] == []
        assert net.stats.messages_dropped == 1


class TestFifo:
    def test_later_send_never_overtakes_earlier(self, sim):
        # High-variance link: without FIFO the second message would often win.
        net, inboxes = wire(sim, lan=UniformLatency(0.001, 0.100))
        for i in range(50):
            net.send(A, B, Note(body=i))
        sim.run()
        assert [msg.body for msg, _ in inboxes[B]] == list(range(50))

    def test_fifo_is_per_link_not_global(self, sim):
        net, inboxes = wire(sim, lan=FixedLatency(0.001))
        net.set_link("dc0", "dc0", FixedLatency(0.001))
        net.send(A, B, Note(body="ab"))
        net.send(B, A, Note(body="ba"))
        sim.run()
        assert inboxes[B][0][0].body == "ab"
        assert inboxes[A][0][0].body == "ba"


class TestFailures:
    def test_down_node_receives_nothing(self, sim):
        net, inboxes = wire(sim)
        net.set_down(B)
        net.send(A, B, Note())
        sim.run()
        assert inboxes[B] == []
        assert net.stats.messages_dropped == 1

    def test_down_node_sends_nothing(self, sim):
        net, inboxes = wire(sim)
        net.set_down(A)
        net.send(A, B, Note())
        sim.run()
        assert inboxes[B] == []

    def test_crash_while_in_flight_drops_message(self, sim):
        net, inboxes = wire(sim)
        net.send(A, B, Note())
        net.set_down(B)
        sim.run()
        assert inboxes[B] == []

    def test_recovery_restores_delivery(self, sim):
        net, inboxes = wire(sim)
        net.set_down(B)
        net.set_down(B, False)
        net.send(A, B, Note())
        sim.run()
        assert len(inboxes[B]) == 1

    def test_site_partition_blocks_both_directions(self, sim):
        net, inboxes = wire(sim)
        net.block("dc0", "dc1")
        net.send(A, C, Note())
        net.send(C, A, Note())
        sim.run()
        assert inboxes[C] == [] and inboxes[A] == []

    def test_address_level_partition(self, sim):
        net, inboxes = wire(sim)
        net.block(A, B)
        net.send(A, B, Note())
        net.send(A, C, Note())
        sim.run()
        assert inboxes[B] == []
        assert len(inboxes[C]) == 1

    def test_unblock_removes_one_partition(self, sim):
        net, inboxes = wire(sim)
        net.block("dc0", "dc1")
        net.block(A, B)
        net.unblock("dc0", "dc1")
        net.send(A, C, Note())
        net.send(A, B, Note())
        sim.run()
        assert len(inboxes[C]) == 1
        assert inboxes[B] == []

    def test_restore_undoes_stacked_slowdowns(self, sim):
        net, _ = wire(sim, wan=FixedLatency(0.010))
        override = FixedLatency(0.020)
        net.set_link("dc0", "dc1", override)
        net.slow("dc0", "dc1", 2.0)
        net.slow("dc1", "dc0", 3.0)
        assert net.site_model("dc0", "dc1").mean() == pytest.approx(0.120)
        net.restore("dc0", "dc1")
        assert net.site_model("dc0", "dc1") is override
        net.slow("dc0", "dc0", 5.0)
        net.restore("dc0", "dc0")
        assert net.site_model("dc0", "dc0") is net._lan

    def test_filter_drops_selected_messages(self, sim):
        net, inboxes = wire(sim)
        net.add_filter(lambda s, d, m: not (isinstance(m, Note) and m.body == "drop"))
        net.send(A, B, Note(body="drop"))
        net.send(A, B, Note(body="keep"))
        sim.run()
        assert [m.body for m, _ in inboxes[B]] == ["keep"]

    def test_clear_filters(self, sim):
        net, inboxes = wire(sim)
        net.add_filter(lambda s, d, m: False)
        net.clear_filters()
        net.send(A, B, Note())
        sim.run()
        assert len(inboxes[B]) == 1


class TestStats:
    def test_counts_messages_and_bytes(self, sim):
        net, _ = wire(sim)
        msg = Note(body="x" * 10)
        net.send(A, B, msg)
        assert net.stats.messages_sent == 1
        assert net.stats.bytes_sent == msg.size_bytes()
        assert net.stats.by_type["note"] == 1

    def test_cross_site_traffic_tracked_separately(self, sim):
        net, _ = wire(sim)
        net.send(A, B, Note())
        net.send(A, C, Note())
        assert net.stats.cross_site_messages == 1
        assert 0 < net.stats.cross_site_bytes < net.stats.bytes_sent

    def test_per_type_views_merge_and_pickle(self, sim):
        # One type_name -> [count, bytes] table behind by_type /
        # bytes_by_type / count_of / bytes_of, merged across shard
        # workers and shipped between them by pickle.
        net, _ = wire(sim)
        note, big = Note(body="x"), Note(body="x" * 50)
        for msg in (note, big):
            net.send(A, B, msg)
        stats = net.stats
        assert dict(stats.by_type) == {"note": 2}
        assert dict(stats.bytes_by_type) == {"note": note.size_bytes() + big.size_bytes()}
        assert stats.count_of("note", "never-sent") == 2
        assert stats.bytes_of("note", "never-sent") == stats.bytes_sent
        with pytest.raises(TypeError):
            stats.by_type["note"] = 0  # a view, not the table
        merged = NetworkStats()
        merged.merge_from(pickle.loads(pickle.dumps(stats)))
        merged.merge_from(stats)
        assert merged.count_of("note") == 4
        assert merged.bytes_of("note") == 2 * stats.bytes_sent == merged.bytes_sent
        assert stats.count_of("note") == 2  # merging never aliases the source's rows

    def test_duplicate_registration_rejected(self, sim):
        net, _ = wire(sim)
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            net.register(A, lambda m, s: None)


class TestAddress:
    def test_hash_and_lookup_survive_pickle_across_hash_seeds(self):
        # String hashes are salted per process: an address pickled in one
        # worker must hash like a locally built one in another (the
        # sharded engine looks handlers up by unpickled addresses).
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        dump = "import pickle, sys; from repro.net import Address; " \
               "sys.stdout.write(pickle.dumps((Address('dc0', 'n1'), {Address('dc1', 'n2'): 'v'})).hex())"
        blob = subprocess.run(
            [sys.executable, "-c", dump], env={**env, "PYTHONHASHSEED": "1"},
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        load = "import pickle, sys; from repro.net import Address; " \
               "addr, table = pickle.loads(bytes.fromhex(sys.argv[1])); " \
               "assert hash(addr) == hash(Address('dc0', 'n1')); " \
               "assert {Address('dc0', 'n1'): 'ok'}[addr] == 'ok'; " \
               "assert table[Address('dc1', 'n2')] == 'v'; print('ok')"
        done = subprocess.run(
            [sys.executable, "-c", load, blob], env={**env, "PYTHONHASHSEED": "2"},
            stdout=subprocess.PIPE, text=True, check=True,
        )
        assert done.stdout.strip() == "ok"

    def test_value_semantics(self):
        clone = pickle.loads(pickle.dumps(A))
        assert clone == A and hash(clone) == hash(A) and clone is not A
        assert A != B and A < B and str(A) == "dc0:a"
        assert {A: 1}[Address("dc0", "a")] == 1


class CountingLatency(FixedLatency):
    def __init__(self, delay):
        super().__init__(delay)
        self.samples = 0

    def sample(self, rng):
        self.samples += 1
        return super().sample(rng)


class TestDeliveryTimeResolution:
    def test_reregistered_address_gets_the_new_handler(self, sim):
        # crash -> recover -> re-register: a message in flight across the
        # swap reaches whoever holds the address at delivery time
        net, inboxes = wire(sim)
        fresh = []
        net.send(A, B, Note(body="in-flight"))
        net.set_down(B)
        net.unregister(B)
        net.register(B, lambda msg, src: fresh.append(msg.body))  # also un-crashes
        net.send(A, B, Note(body="after"))
        sim.run()
        assert inboxes[B] == []
        assert fresh == ["in-flight", "after"]

    def test_divert_runs_after_stats_and_before_latency_sampling(self, sim):
        lan = CountingLatency(0.001)
        net, inboxes = wire(sim, lan=lan)
        seen = []

        def divert(src, dst, msg):
            seen.append((msg.body, net.stats.messages_sent, lan.samples))
            return msg.body == "mine"

        net.set_divert(divert)
        net.set_down(C)
        net.send(A, B, Note(body="mine"))
        net.send(A, C, Note(body="dropped"))  # never reaches the hook
        net.send(A, B, Note(body="yours"))
        # each survivor was already counted, and no delay had been drawn for it
        assert seen == [("mine", 1, 0), ("yours", 2, 0)]
        assert lan.samples == 1  # only the message the hook declined
        sim.run()
        assert [m.body for m, _ in inboxes[B]] == ["yours"]
        net.inject_now(A, B, Note(body="mine"))
        sim.run()
        assert [m.body for m, _ in inboxes[B]] == ["yours", "mine"]
