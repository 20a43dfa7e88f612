"""Unit tests for actors: dispatch, timers, crash/recover, the deadline
table of typed request / reply pairs, service time."""

import dataclasses
from typing import Any, ClassVar

import pytest

from repro.errors import RequestTimeout
from repro.net import Actor, Address, FixedLatency, Message, Network
from repro.sim import Future, Simulator


@dataclasses.dataclass(frozen=True)
class Tick(Message):
    type_name: ClassVar[str] = "tick"
    n: int = 0


@dataclasses.dataclass(frozen=True)
class Mystery(Message):
    type_name: ClassVar[str] = "mystery"


@dataclasses.dataclass(frozen=True)
class Double(Message):
    """A typed request: answer ``n * 2`` (``later``: half a second later)."""

    type_name: ClassVar[str] = "double"
    request_id: int = 0
    n: int = 0
    later: bool = False


@dataclasses.dataclass(frozen=True)
class Doubled(Message):
    type_name: ClassVar[str] = "doubled"
    request_id: int = 0
    n: int = 0


def ask(sender, dst, n, timeout, cont, later=False):
    """Enter ``cont`` in ``sender``'s deadline table and send the request."""
    rid = sender._open_request(cont, timeout, "double", dst.address)
    if rid:
        sender.send(dst.address, Double(request_id=rid, n=n, later=later))


def call(sender, dst, n, timeout=5.0, later=False):
    """:func:`ask` with a fresh future as the continuation."""
    fut = Future(sender.sim)
    ask(sender, dst, n, timeout, fut, later)
    return fut


class Echo(Actor):
    SERVICED_TYPES = frozenset({"tick"})

    def __init__(self, sim, network, address):
        super().__init__(sim, network, address)
        self.ticks = []
        self.unknown = []

    def on_tick(self, msg, src):
        self.ticks.append((msg.n, self.sim.now))

    def on_unhandled(self, msg, src):
        self.unknown.append(msg)

    def on_double(self, msg, src):
        reply = Doubled(request_id=msg.request_id, n=msg.n * 2)
        if msg.later:
            self.set_timer(0.5, self.send, src, reply)
        else:
            self.send(src, reply)

    on_doubled = Actor.take_reply


class Outcomes:
    """A log of (tag, "reply" | "failed", value or exception type,
    virtual time), one entry per continuation call."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def cont(self, tag):
        return _Tagged(self, tag)


class _Tagged:
    def __init__(self, outcomes, tag):
        self.outcomes, self.tag = outcomes, tag

    def rpc_reply(self, value):
        self.outcomes.seen.append((self.tag, "reply", value, self.outcomes.sim.now))

    def rpc_failed(self, exc):
        self.outcomes.seen.append((self.tag, "failed", type(exc), self.outcomes.sim.now))


@pytest.fixture
def pair(sim):
    net = Network(sim, lan=FixedLatency(0.001))
    a = Echo(sim, net, Address("dc0", "a"))
    b = Echo(sim, net, Address("dc0", "b"))
    return a, b


class TestDispatch:
    def test_handler_called_by_type_name(self, sim, pair):
        a, b = pair
        a.send(b.address, Tick(n=5))
        sim.run()
        assert b.ticks[0][0] == 5

    def test_unhandled_hook(self, sim, pair):
        a, b = pair
        a.send(b.address, Mystery())
        sim.run()
        assert len(b.unknown) == 1


class Loud(Echo):
    def on_tick(self, msg, src):
        self.ticks.append((msg.n * 100, self.sim.now))


class TestHandlerTable:
    def test_subclass_override_wins(self, sim, pair):
        a, _ = pair
        loud = Loud(sim, a.network, Address("dc0", "loud"))
        a.send(loud.address, Tick(n=3))
        sim.run()
        assert [n for n, _ in loud.ticks] == [300]

    def test_handler_assigned_on_instance_before_first_message(self, sim, pair):
        a, b = pair
        seen = []
        b.on_tick = lambda msg, src: seen.append(msg.n)
        b.on_double = lambda msg, src: b.send(src, Doubled(msg.request_id, msg.n * 3))
        a.send(b.address, Tick(n=4))
        fut = call(a, b, 5)
        sim.run()
        assert seen == [4] and b.ticks == []
        assert fut.result().n == 15

    def test_tables_are_per_instance(self, sim, pair):
        a, b = pair
        b.on_tick = lambda msg, src: None
        b.send(a.address, Tick(n=1))
        a.send(b.address, Tick(n=2))
        sim.run()
        assert [n for n, _ in a.ticks] == [1] and b.ticks == []

    def test_message_subclass_resolves_by_its_own_type_name(self, sim, pair):
        @dataclasses.dataclass(frozen=True)
        class Tock(Tick):
            type_name: ClassVar[str] = "tock"

        a, b = pair
        a.send(b.address, Tick(n=1))
        a.send(b.address, Tock(n=2))
        sim.run()
        assert [n for n, _ in b.ticks] == [1]
        assert [type(m).__name__ for m in b.unknown] == ["Tock"]

    def test_crash_between_receive_and_service_dispatches_nothing(self, sim, pair):
        a, b = pair
        b.service_time = 0.010
        a.send(b.address, Tick(n=1))  # arrives at 1 ms, due out of service at 11 ms
        sim.schedule(0.005, b.crash)
        sim.run()
        assert b.ticks == []


class TestTimers:
    def test_timer_fires_after_delay(self, sim, pair):
        a, _ = pair
        fired = []
        a.set_timer(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_cancelled_timer_does_not_fire(self, sim, pair):
        a, _ = pair
        fired = []
        handle = a.set_timer(1.0, lambda: fired.append(1))
        a.cancel_timer(handle)
        sim.run()
        assert fired == []

    def test_crash_cancels_timers(self, sim, pair):
        a, _ = pair
        fired = []
        a.set_timer(1.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []


class TestCrashRecover:
    def test_crashed_actor_ignores_messages(self, sim, pair):
        a, b = pair
        b.crash()
        a.send(b.address, Tick(n=1))
        sim.run()
        assert b.ticks == []

    def test_crashed_actor_sends_nothing(self, sim, pair):
        a, b = pair
        a.crash()
        a.send(b.address, Tick(n=1))
        sim.run()
        assert b.ticks == []

    def test_recover_restores_messaging(self, sim, pair):
        a, b = pair
        b.crash()
        b.recover()
        a.send(b.address, Tick(n=2))
        sim.run()
        assert b.ticks[0][0] == 2

    def test_crash_fails_in_flight_rpcs(self, sim, pair):
        a, b = pair
        fut = call(a, b, 1, later=True)
        sim.schedule(0.1, a.crash)
        sim.run()
        assert fut.failed()

    def test_crash_and_recover_idempotent(self, sim, pair):
        a, _ = pair
        a.crash()
        a.crash()
        a.recover()
        a.recover()
        assert not a.crashed


class TestRpc:
    def test_roundtrip(self, sim, pair):
        a, b = pair
        fut = call(a, b, 21)
        sim.run()
        assert fut.result() == Doubled(request_id=1, n=42)

    def test_timeout_when_peer_down(self, sim, pair):
        a, b = pair
        b.crash()
        fut = call(a, b, 1, timeout=0.5)
        sim.run()
        with pytest.raises(RequestTimeout):
            fut.result()
        assert sim.now >= 0.5

    def test_response_cancels_the_timeout_before_the_caller_resumes(self, sim, pair):
        a, b = pair
        fut = call(a, b, 2)
        awaited_at_resume = []
        fut.add_callback(lambda _f: awaited_at_resume.append(len(a._rpc_pending)))
        sim.run()
        assert fut.result().n == 4
        assert awaited_at_resume == [0]  # nothing left for a deadline to fail

    def test_an_answered_rpc_is_never_failed_when_the_alarm_fires_later(self, sim, pair):
        a, b = pair
        outcomes = Outcomes(sim)
        ask(a, b, 2, 1.0, outcomes.cont("x"))
        sim.run()
        assert outcomes.seen == [("x", "reply", Doubled(request_id=1, n=4), 0.002)]
        # request, reply, and the alarm's no-op firing at the deadline
        assert (sim.events_processed, sim.now) == (3, 1.0)

    def test_each_rpc_times_out_at_its_own_deadline_in_id_order_on_ties(self, sim, pair):
        a, b = pair
        b.crash()  # requests are dropped at send: the only events are a's alarm
        outcomes = Outcomes(sim)
        start = 0.05

        def send_all():
            for tag, timeout in enumerate([0.3, 0.1, 0.2, 0.1]):
                ask(a, b, tag, timeout, outcomes.cont(tag))
            assert sim.pending_events() == 1

        sim.schedule(start, send_all)
        sim.run()
        assert outcomes.seen == [
            (1, "failed", RequestTimeout, start + 0.1),
            (3, "failed", RequestTimeout, start + 0.1),
            (2, "failed", RequestTimeout, start + 0.2),
            (0, "failed", RequestTimeout, start + 0.3),
        ]
        assert sim.events_processed == 1 + 3  # the issuing event, one alarm per deadline

    def test_a_thousand_rpcs_in_flight_keep_one_alarm(self, sim, pair):
        a, b = pair
        b.on_double = lambda msg, src: None  # never answered
        outcomes = Outcomes(sim)
        for n in range(1000):
            ask(a, b, n, 1.0 + (n % 10) / 10, outcomes.cont(n))
        for until in (0.5, 1.05, 1.45):
            sim.run(until=until)
            assert sim.pending_events() == 1 and a._rpc_alarm is not None
        sim.run()
        assert sim.pending_events() == 0 and not a._rpc_pending
        assert len(outcomes.seen) == 1000
        assert all(at == 1.0 + (n % 10) / 10 for n, _kind, _exc, at in outcomes.seen)

    def test_late_response_after_timeout_is_dropped(self, sim, pair):
        a, b = pair
        # The request times out before its deferred reply is sent.
        fut = call(a, b, 1, timeout=0.1, later=True)
        sim.run()
        assert fut.failed() and sim.now == pytest.approx(0.502)  # the late reply arrived

    def test_call_from_crashed_actor_fails_immediately(self, sim, pair):
        a, b = pair
        a.crash()
        fut = call(a, b, 1)
        assert fut.failed()


class TestServiceTime:
    def test_serviced_messages_queue(self, sim, pair):
        a, b = pair
        b.service_time = 0.010
        for i in range(3):
            a.send(b.address, Tick(n=i))
        sim.run()
        # arrival at 1ms, then 10ms service each, processed back to back
        times = [t for _, t in b.ticks]
        assert times[0] == pytest.approx(0.011)
        assert times[1] == pytest.approx(0.021)
        assert times[2] == pytest.approx(0.031)

    def test_unserviced_messages_bypass_queue(self, sim, pair):
        a, b = pair
        b.service_time = 0.010
        a.send(b.address, Tick(n=0))
        a.send(b.address, Mystery())  # not in SERVICED_TYPES
        sim.run()
        # mystery handled on arrival, before the tick finishes service
        assert len(b.unknown) == 1

    def test_idle_server_has_no_queueing_delay_beyond_service(self, sim, pair):
        a, b = pair
        b.service_time = 0.010
        a.send(b.address, Tick(n=0))
        sim.run()
        assert b.ticks[0][1] == pytest.approx(0.011)
