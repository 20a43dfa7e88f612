"""Tests for the PR-1 performance work, as it stands now: a message's
wire size taken once, the kernel's O(1) pending counter and heap
compaction, the fire-and-forget post API, and the FIFO-horizon sweep."""

import dataclasses
from typing import ClassVar

import pytest

from repro.net import Address, FixedLatency, Message, Network
from repro.net.message import _walk_size, wire_message
from repro.net.network import _HORIZON_SWEEP_INTERVAL


@wire_message
class Sized(Message):
    type_name: ClassVar[str] = "sized"
    body: str = ""


@dataclasses.dataclass(frozen=True)
class Plain(Message):
    type_name: ClassVar[str] = "plain"
    body: str = ""


class TestSizeMemoization:
    """A ``@wire_message`` is sized by its ``__init__``; any other
    ``Message`` subclass by the walk, on first ask. Either way the
    size is kept on the instance."""

    def test_memoized_size_is_stable_and_correct(self):
        msg = Sized(body="hello")
        first = msg.size_bytes()
        assert first == msg.wire_size == Plain(body="hello").size_bytes() == _walk_size(msg)
        assert msg.size_bytes() == first

    def test_messages_are_frozen(self):
        # Messages are immutable once constructed — that is what makes
        # a size taken at build time the size at every send.
        msg = Sized(body="ab")
        with pytest.raises(dataclasses.FrozenInstanceError):
            msg.body = "a much longer body than before"
        with pytest.raises(dataclasses.FrozenInstanceError):
            Plain(body="ab").body = "other"

    def test_unsized_messages_do_not_cache(self):
        msg = Plain(body="ab")
        assert "wire_size" not in msg.__dict__  # not asked yet: nothing kept
        small = msg.size_bytes()
        assert msg.__dict__["wire_size"] == small
        assert dataclasses.replace(msg, body="xyz!").size_bytes() == small + 2

    def test_protocol_chain_put_memoizes(self):
        from repro.core.messages import ChainPut

        msg = ChainPut(key="k", value="v" * 32)
        assert msg.__dict__["wire_size"] == _walk_size(msg)  # sized when built
        assert msg.size_bytes() == msg.wire_size


class TestKernelCounters:
    def test_pending_counter_tracks_schedule_and_pop(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events() == 5
        handles[0].cancel()
        assert sim.pending_events() == 4
        sim.run()
        assert sim.pending_events() == 0

    def test_post_events_counted_and_fire_in_order(self, sim):
        order = []
        sim.post(2.0, order.append, 2)
        sim.post(1.0, order.append, 1)
        assert sim.pending_events() == 2
        sim.run()
        assert order == [1, 2]
        assert sim.events_processed == 2

    def test_post_interleaves_fifo_with_schedule(self, sim):
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.post(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_post_rejects_past(self, sim):
        from repro.errors import SimulationError

        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(-0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.post_at(0.5, lambda: None)

    def test_mass_cancellation_compacts_heap(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
        keep = sim.schedule(2000.0, lambda: None)
        for handle in handles:
            handle.cancel()
        # Compaction kicked in: the heap no longer holds ~1000 dead entries.
        assert len(sim._heap) < 100
        assert sim.pending_events() == 1
        sim.run()
        assert sim.events_processed == 1
        assert keep.cancelled is False

    def test_cancel_after_fire_keeps_counters_sane(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # late cancel of an already-fired event
        assert sim.pending_events() == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events() == 1


class TestHorizonSweep:
    def test_stale_fifo_horizons_are_swept(self, sim):
        net = Network(sim, lan=FixedLatency(0.001))
        a, b = Address("dc0", "a"), Address("dc0", "b")
        inbox = []
        net.register(a, lambda m, s: None)
        net.register(b, lambda m, s: inbox.append((s, m.body)))
        # Many transient links: send one message per fake client address.
        clients = [Address("dc0", f"client-{i}") for i in range(200)]
        for src in clients:
            net.register(src, lambda m, s: None)
            net.send(src, b, Plain(body="x"))
        sim.run()
        assert net.open_links() == 200
        # Let virtual time move past every transient horizon, then keep
        # one link warm and push total sends past the sweep interval.
        sim.schedule(1.0, lambda: None)
        sim.run()
        for _ in range(_HORIZON_SWEEP_INTERVAL):
            net.send(a, b, Plain(body="x"))
        sim.run()
        # The senders that went quiet no longer cost anything.
        assert net.open_links() <= 2
        # A swept link is simply re-opened by its next send, FIFO intact.
        del inbox[:]
        net.send(clients[7], b, Plain(body="first"))
        net.send(clients[7], b, Plain(body="second"))
        sim.run()
        assert inbox == [(clients[7], "first"), (clients[7], "second")]

    def test_fifo_order_survives_sweep(self, sim):
        from repro.net import UniformLatency

        net = Network(sim, lan=UniformLatency(0.001, 0.050))
        a, b = Address("dc0", "a"), Address("dc0", "b")
        inbox = []
        net.register(a, lambda m, s: None)
        net.register(b, lambda m, s: inbox.append(m.body))
        total = _HORIZON_SWEEP_INTERVAL + 100
        for i in range(total):
            # Mid-flight model changes keep the link's horizon: a faster
            # model must not let later messages overtake the ones still
            # in flight under the slower one.
            if i == total // 3:
                net.set_link("dc0", "dc0", FixedLatency(0.0001))
            elif i == 2 * total // 3:
                net.clear_link("dc0", "dc0")
            net.send(a, b, Plain(body=i))
        sim.run()
        assert inbox == list(range(total))

