"""Actors: addressable event-driven participants in the simulation.

Every server, proxy, and client-library endpoint in the reproduction is
an :class:`Actor`. An actor reacts to messages through ``on_<type>``
handler methods (dispatched on the message's ``type_name``), owns timers
that die with it, and can be crashed and recovered for fault-injection
experiments.

Every awaited reply sits in one deadline table per actor, watched by a
single kernel alarm at its earliest deadline: a reply costs no heap
entry. A *continuation* waits in it and hears the outcome once:
``rpc_reply(reply)`` or ``rpc_failed(exc)``. There is one request form,
the typed pair: the sender enters the continuation with
:meth:`Actor._open_request` and sends its own request message under the
returned id (:meth:`Actor.ask` does both); the reply message carries
the id back, and its ``on_<type>`` handler is :meth:`Actor.take_reply`.
A refusal is a field of the reply (``ok=False``, always worth another
attempt), never an exception: a continuation fails only at its deadline
(:class:`RequestTimeout`) or when its actor goes down.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, Optional, Set, Tuple, Type

from repro.errors import ReplicaUnavailable, ReproError, RequestTimeout
from repro.net.message import Message
from repro.net.network import Address, Network
from repro.sim.kernel import ScheduledEvent, Simulator

__all__ = ["Actor"]

#: ``Actor._rpc_alarm_at`` while no alarm is armed
_NEVER = float("inf")


class Actor:
    """Base class for all protocol participants.

    Subclasses implement message handlers named ``on_<type_name>`` with
    dashes replaced by underscores (e.g. ``type_name = "chain-ack"`` →
    ``def on_chain_ack(self, msg, src)``).

    Names are resolved once per actor, on the first message of each
    class, into a per-instance table — so
    a handler assigned on an instance, or a class attribute replaced
    before the actor's first message, is what gets bound.
    """

    #: message types whose handling consumes ``service_time`` (subclasses
    #: override; empty set = infinitely fast actor, e.g. clients)
    SERVICED_TYPES: ClassVar[frozenset] = frozenset()

    def __init__(self, sim: Simulator, network: Network, address: Address) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.crashed = False
        #: per-message CPU cost; with SERVICED_TYPES this makes the actor
        #: a single-server queue, giving it finite capacity — the thing
        #: that lets saturation (and tail-read bottlenecks) exist at all
        self.service_time = 0.0
        self._busy_until = 0.0
        #: optional structured-trace collector (see repro.trace); the
        #: trace() helper is a no-op until one is attached
        self.tracer = None
        self._timers: Set[ScheduledEvent] = set()
        self._rpc_seq = 0
        #: the deadline table: request id → (caller's continuation, its
        #: deadline, method, destination) for every reply awaited
        self._rpc_pending: Dict[int, Tuple[Any, float, str, Address]] = {}
        #: the table's one kernel alarm, armed at ``_rpc_alarm_at`` — no
        #: later than the earliest live deadline; not in ``_timers``
        self._rpc_alarm: Optional[ScheduledEvent] = None
        self._rpc_alarm_at = _NEVER
        #: message class → bound handler, filled by _bind_handler
        self._message_handlers: Dict[Type[Message], Callable[[Any, Address], None]] = {}
        network.register(address, self._receive)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, dst: Address, msg: Message) -> None:
        """Fire-and-forget send; no-op while crashed."""
        if self.crashed:
            return
        self.network.send(self.address, dst, msg)

    def trace(self, category: str, event: str, key: str = "", **fields: Any) -> None:
        """Record a structured protocol event if tracing is attached."""
        if self.tracer is not None:
            self.tracer.record(str(self.address), category, event, key, **fields)

    def _receive(self, msg: Message, src: Address) -> None:
        if self.crashed:
            return
        # Infinitely fast actors (every client) never look at the type.
        # A serviced type costs ``service_time``; every other is free.
        if self.service_time > 0 and msg.type_name in self.SERVICED_TYPES:
            # Single-server queue: processing starts when the CPU frees
            # up and the result is visible after the service time.
            now = self.sim.now
            start = now if now > self._busy_until else self._busy_until
            self._busy_until = start + self.service_time
            self.sim.post_at(self._busy_until, self._dispatch, msg, src)
            return
        # _dispatch's lookup, without its frame: most deliveries are free.
        handler = self._message_handlers.get(type(msg))
        if handler is None:
            handler = self._bind_handler(type(msg))
        handler(msg, src)

    def _dispatch(self, msg: Message, src: Address) -> None:
        """A serviced message, once its service slot ends."""
        if self.crashed:
            return
        handler = self._message_handlers.get(type(msg))
        if handler is None:
            handler = self._bind_handler(type(msg))
        handler(msg, src)

    def _bind_handler(self, cls: Type[Message]) -> Callable[[Any, Address], None]:
        """Resolve and remember this actor's handler for ``cls``."""
        name = "on_" + cls.type_name.replace("-", "_")
        handler: Callable[[Any, Address], None] = getattr(self, name, None) or self.on_unhandled
        self._message_handlers[cls] = handler
        return handler

    def on_unhandled(self, msg: Message, src: Address) -> None:
        """Hook for messages with no matching handler; default: ignore."""

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule a callback that is implicitly cancelled if this actor crashes."""
        handle: ScheduledEvent = self.sim.schedule(delay, self._fire_timer, None, callback, args)
        # Rebind args so the timer can remove itself from the live set.
        handle.args = (handle, callback, args)
        self._timers.add(handle)
        return handle

    def _fire_timer(self, handle: ScheduledEvent, callback: Callable[..., Any], args: tuple) -> None:
        self._timers.discard(handle)
        if self.crashed:
            return
        callback(*args)

    def cancel_timer(self, handle: ScheduledEvent) -> None:
        handle.cancel()
        self._timers.discard(handle)

    # ------------------------------------------------------------------
    # crash / recover
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop all state-machine timers and in-flight RPCs."""
        if self.crashed:
            return
        self.crashed = True
        self.network.set_down(self.address, True)
        # sorted(): cancellation order must not depend on set hash layout
        # (ScheduledEvent orders by (time, seq), a deterministic total order
        # the linter cannot see through the bare sorted() call).
        for timer in sorted(self._timers):  # repro: lint-ok(sort-tie-identity)
            timer.cancel()
        self._timers.clear()
        self._fail_rpcs(ReplicaUnavailable, f"{self.address} crashed with RPC in flight")

    def recover(self) -> None:
        """Bring a crashed actor back; volatile protocol state is NOT restored
        here — subclasses override :meth:`on_recover` for their recovery logic."""
        if not self.crashed:
            return
        self.crashed = False
        self._busy_until = self.sim.now
        self.network.set_down(self.address, False)
        self.on_recover()

    def on_recover(self) -> None:
        """Hook invoked after the actor rejoins the network."""

    # ------------------------------------------------------------------
    # requests and replies
    # ------------------------------------------------------------------
    def _open_request(self, cont: Any, timeout: float, method: str, dst: Address) -> int:
        """What a request does before it is sent: :meth:`_expect_reply`,
        or, while this actor is crashed, ``cont.rpc_failed`` at once with
        :class:`ReplicaUnavailable` and 0 (request ids start at 1): then
        there is nothing to send. ``cont`` hears one of ``rpc_reply(reply)``
        and ``rpc_failed(exc)``, once; ``exc`` is a :class:`RequestTimeout`
        (naming ``method``), or :class:`ReplicaUnavailable` when this actor
        is or goes down (a client session's close: SessionClosedError)."""
        if self.crashed:
            cont.rpc_failed(ReplicaUnavailable(f"{self.address} is crashed"))
            return 0
        return self._expect_reply(cont, timeout, method, dst)

    def ask(
        self, cont: Any, timeout: float, dst: Address, request: Type[Message], *fields: Any
    ) -> None:
        """Send ``request(request_id, *fields)`` to ``dst``, its reply
        awaited by ``cont`` (:meth:`_open_request`)."""
        rid = self._open_request(cont, timeout, request.type_name, dst)
        if rid:
            self.send(dst, request(rid, *fields))

    def take_reply(self, msg: Any, src: Address) -> None:
        """The handler of every typed reply (bound per class as its
        ``on_<type>``): pop the entry ``msg.request_id`` names and hand
        ``msg`` to its continuation. A late reply, to an attempt that
        already timed out, finds no entry and is dropped."""
        pending = self._rpc_pending.pop(msg.request_id, None)
        if pending is not None:
            pending[0].rpc_reply(msg)

    def _expect_reply(self, cont: Any, timeout: float, method: str, dst: Address) -> int:
        """Enter ``cont`` in the deadline table under a fresh request id,
        returned; the reply's receiver pops the entry, or at ``now +
        timeout`` the alarm calls ``cont.rpc_failed(RequestTimeout)``."""
        self._rpc_seq += 1
        rid = self._rpc_seq
        at = self.sim.now + timeout
        self._rpc_pending[rid] = (cont, at, method, dst)
        if at < self._rpc_alarm_at:
            self._arm_rpc_alarm(at)
        return rid

    def _arm_rpc_alarm(self, at: float) -> None:
        alarm = self._rpc_alarm
        if alarm is not None:
            alarm.cancel()
        self._rpc_alarm_at = at
        # Released at once: the reference is dropped before the handle
        # can leave the heap (on cancel here, or when it fires).
        alarm = self._rpc_alarm = self.sim.schedule_at(at, self._rpc_timeout)
        alarm.release()

    def _rpc_timeout(self) -> None:
        """The alarm: fail every expired entry, in id order, then re-arm
        at the earliest deadline left. A reply never touches the alarm,
        so it may find nothing due."""
        self._rpc_alarm = None
        now = self.sim.now
        # Entries the failures' reactions add wait for the re-arm below.
        self._rpc_alarm_at = now
        for rid in [rid for rid, entry in self._rpc_pending.items() if entry[1] <= now]:
            # Looked up afresh: a reaction may crash or close this actor.
            entry = self._rpc_pending.pop(rid, None)
            if entry is not None:
                entry[0].rpc_failed(RequestTimeout(f"rpc {entry[2]!r} to {entry[3]} timed out"))
        self._rpc_alarm_at = _NEVER
        if self._rpc_pending:
            self._arm_rpc_alarm(min(entry[1] for entry in self._rpc_pending.values()))

    def _fail_rpcs(self, exc_type: Type[ReproError], message: str) -> None:
        """Fail every entry of the deadline table with ``exc_type(message)``
        at once, and disarm the alarm."""
        if self._rpc_alarm is not None:
            self._rpc_alarm.cancel()
            self._rpc_alarm = None
        self._rpc_alarm_at = _NEVER
        pending, self._rpc_pending = self._rpc_pending, {}
        for entry in pending.values():
            entry[0].rpc_failed(exc_type(message))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.address} {state}>"
