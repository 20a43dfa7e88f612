"""Deterministic discrete-event simulation kernel.

The kernel owns virtual time. Everything in the reproduction — network
delivery, protocol timers, client think time — is expressed as callbacks
scheduled on a single :class:`Simulator` instance, so a run with a fixed
seed is exactly reproducible.

Events with equal timestamps fire in the order they were scheduled
(FIFO tie-break via a monotonically increasing sequence number), which
keeps executions deterministic even when many messages land on the same
instant.

Import the classes through :mod:`repro.sim.kernel`; the module sits
here because the standing benchmark binds ``Simulator`` by this path.

Performance notes (this is the hottest loop in the repository — every
message hop and timer passes through it):

- The heap holds plain tuples, so sift comparisons stop at the unique
  ``seq`` element and run entirely in C — ``ScheduledEvent.__lt__`` is
  never dispatched. Two entry shapes coexist:
  ``(time, seq, event)`` for cancellable events and
  ``(time, seq, callback, args)`` for fire-and-forget events posted via
  :meth:`Simulator.post` / :meth:`Simulator.post_at`, which skip the
  handle allocation entirely (the network delivery path uses these).
- ``pending_events()`` is O(1): the simulator keeps a live counter
  updated on schedule/cancel/pop instead of scanning the heap.
- Lazily-cancelled entries are compacted away once they outnumber the
  live ones, so a workload that cancels most of its timers cannot grow
  the heap without bound; a cancelled entry holds no callback meanwhile.
- Fired handles are pooled and reused, but only when the scheduling
  site explicitly waived the handle via :meth:`ScheduledEvent.release`
  — see the class docstring for the ownership contract.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["DeliveryChooser", "Simulator", "ScheduledEvent"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Below this heap size compaction is pointless churn.
_COMPACT_MIN_HEAP = 64

#: Upper bound on recycled handles kept per simulator.
_FREELIST_MAX = 1024


def _noop() -> None:
    """Callback parked on recycled and cancelled handles; firing one is a
    kernel bug."""


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped, which keeps ``cancel`` O(1). The owning simulator
    compacts the heap once cancelled entries dominate it.

    **Ownership.** Every handle returned by :meth:`Simulator.schedule`
    is *owned* by its caller: the kernel will never reuse it, so a
    stored handle stays valid (and ``cancel()``-able) forever. A caller
    that will not touch the handle again may waive ownership with
    :meth:`release`; once a released handle leaves the heap (fired, or
    popped after cancellation) the simulator parks it on a freelist and
    a later ``schedule`` call may hand it out again. The flag is an
    explicit contract rather than a refcount probe, so recycling does
    not depend on who else happens to hold a reference.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owned", "_sim")

    time: float
    seq: int
    callback: Callable[..., Any]
    args: Tuple[Any, ...]
    cancelled: bool
    owned: bool
    _sim: Optional["Simulator"]

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owned = True
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing. Safe to call more than once.

        Drops the callback and its arguments at once: the entry stays in
        the heap until popped or compacted, and must not keep what it
        would have called alive that long."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = _noop
        self.args = ()
        if self._sim is not None:
            self._sim._note_cancel()
            self._sim = None

    def release(self) -> None:
        """Waive ownership: the kernel may pool and reuse this handle.

        Call exactly when the holder will never touch the handle again
        (no late ``cancel()`` through a stashed reference). Typical
        sites call it immediately at scheduling time
        (``sim.schedule(...).release()`` for fire-and-forget timers that
        still want a one-shot cancel window elsewhere) or right after a
        final ``cancel()``. Releasing after the event already fired is
        harmless — the handle simply isn't pooled.
        """
        self.owned = False

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


class DeliveryChooser:
    """Hook deciding *which* pending delivery runs next (schedule control).

    The heap fixes event order by ``(time, seq)``; a systematic explorer
    (:mod:`repro.analysis.explore`) instead wants to *choose* the next
    message delivery among all concurrently-pending ones. A chooser
    attached via :meth:`Simulator.set_delivery_chooser` is consulted by
    :meth:`Simulator.run_window` exactly when virtual time would
    otherwise advance (or the heap is empty): if the chooser has a
    pending delivery to release, it posts it at the *current* instant
    (``sim.post_at(sim.now, ...)``) and returns True, and the loop picks
    it up before any later-timestamped event fires. Timers therefore
    only fire once the chooser has drained everything it wants delivered
    at the current instant.

    ``run()``'s fast path never consults the chooser — the golden-trace
    configuration (no chooser attached) is byte-identical with this seam
    in place.
    """

    __slots__ = ()

    def release(self, sim: "Simulator") -> bool:
        """Post one chosen delivery at ``sim.now``; True if one was posted."""
        raise NotImplementedError


class Simulator:
    """A single-threaded discrete-event simulator with virtual time.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run()

    Virtual time is a float in **seconds**. The simulator never sleeps on
    the wall clock; ``run`` simply drains the event heap.
    """

    __slots__ = (
        "now",
        "_seq",
        "_heap",
        "_running",
        "_events_processed",
        "_pending",
        "_cancelled_in_heap",
        "_freelist",
        "_events_reused",
        "_chooser",
    )

    #: current virtual time in seconds: a plain slot, read on every hop.
    #: Only this module's loops assign it (a test scans the tree for
    #: any other writer).
    now: float
    _seq: int
    _heap: List[Tuple[Any, ...]]
    _running: bool
    _events_processed: int
    _pending: int
    _cancelled_in_heap: int
    _freelist: List[ScheduledEvent]
    _events_reused: int
    _chooser: Optional[DeliveryChooser]

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self._running = False
        self._events_processed = 0
        self._pending = 0
        self._cancelled_in_heap = 0
        self._freelist = []
        self._events_reused = 0
        self._chooser = None

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (cancelled ones excluded)."""
        return self._events_processed

    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events. O(1)."""
        return self._pending

    def set_delivery_chooser(self, chooser: Optional[DeliveryChooser]) -> None:
        """Attach (or detach, with None) a :class:`DeliveryChooser`.

        Only :meth:`run_window` consults it; ``run()``'s fast path is
        untouched, so ordinary seeded runs are unaffected by the seam.
        """
        self._chooser = chooser

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._freelist
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.callback = callback
            ev.args = args
            ev.cancelled = False
            ev.owned = True
            ev._sim = self
            self._events_reused += 1
        else:
            ev = ScheduledEvent(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, ev))
        self._pending += 1
        return ev

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at the current instant (after the
        currently-executing event and anything already queued for now)."""
        return self.schedule(0.0, callback, *args)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable.

        The hot paths (message delivery, process resumption) never cancel
        their events, so they use this to skip the handle allocation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self.post_at(self.now + delay, callback, *args)

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, callback, args))
        self._pending += 1

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._pending -= 1
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            self._cancelled_in_heap * 2 > len(heap)
            and len(heap) >= _COMPACT_MIN_HEAP
        ):
            # Rebuild in place so a `run()` loop holding a reference to
            # the list keeps seeing the compacted heap.
            heap[:] = [e for e in heap if len(e) != 3 or not e[2].cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # handle recycling
    # ------------------------------------------------------------------
    def _recycle(self, ev: ScheduledEvent) -> None:
        """Park a fired/cancelled handle on the freelist — only when its
        scheduling site waived ownership.

        A handle is reused only if :meth:`ScheduledEvent.release` was
        called on it — the holder's explicit promise that no reference
        survives through which a late ``cancel()`` could reach the
        recycled event.
        """
        if not ev.owned and len(self._freelist) < _FREELIST_MAX:
            ev.callback = _noop
            ev.args = ()
            ev._sim = None
            self._freelist.append(ev)

    def event_pool_stats(self) -> Dict[str, int]:
        """Freelist gauges: handles parked, capacity, reuses served."""
        return {
            "free": len(self._freelist),
            "capacity": _FREELIST_MAX,
            "reused": self._events_reused,
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fire(self, entry: Tuple[Any, ...]) -> None:
        """Advance the clock to ``entry`` and run its callback."""
        self._pending -= 1
        self.now = entry[0]
        self._events_processed += 1
        if len(entry) == 3:
            ev = entry[2]
            ev._sim = None
            ev.callback(*ev.args)
            self._recycle(ev)
        else:
            entry[2](*entry[3])

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the heap is empty.

        Peeks past lazily-cancelled entries (popping and recycling them
        as a side effect, which only helps the next caller). This is the
        "earliest output" a shard reports to the parallel coordinator,
        so it must see through cancellation debris — a heap full of
        cancelled timers must not hold the global window back.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 3 and entry[2].cancelled:
                _heappop(heap)
                self._cancelled_in_heap -= 1
                self._recycle(entry[2])
                continue
            return entry[0]
        return None

    def run_window(self, bound: float) -> int:
        """Execute every event with timestamp **strictly below** ``bound``.

        The conservative parallel engine's inner step: a shard that has
        been promised no external input before ``bound`` may run exactly
        this far. The clock is *not* advanced to ``bound`` on return —
        it rests at the last executed event — so cross-shard envelopes
        landing at ``bound`` or later can still be injected via
        :meth:`post_at` before the next window.

        The bound is strict so that an envelope timestamped exactly at a
        window edge is never racing local events at the same instant:
        everything the shard executed is ``< bound``, everything
        injected is ``>= bound``, and the merged order is decided by the
        heap's (time, seq) key alone. Returns the number of events run.

        When a :class:`DeliveryChooser` is attached it is consulted
        whenever virtual time would advance past the current instant (or
        the heap is empty): pending chosen deliveries posted at ``now``
        run before any later-timestamped event.
        """
        if self._running:
            raise SimulationError(
                "simulator is not reentrant: run_window() called from a callback"
            )
        self._running = True
        executed = 0
        heap = self._heap
        pop = _heappop
        try:
            while True:
                entry: Optional[Tuple[Any, ...]] = None
                while heap:
                    head = heap[0]
                    if len(head) == 3 and head[2].cancelled:
                        ev = head[2]
                        pop(heap)
                        self._cancelled_in_heap -= 1
                        self._recycle(ev)
                        continue
                    entry = head
                    break
                chooser = self._chooser
                if chooser is not None and self.now < bound:
                    # Time would advance (or the heap drained): give the
                    # chooser a chance to inject a delivery at `now` first.
                    if (entry is None or entry[0] > self.now) and chooser.release(self):
                        continue
                if entry is None or entry[0] >= bound:
                    break
                pop(heap)
                # _fire, inlined (see run()).
                self._pending -= 1
                self.now = entry[0]
                self._events_processed += 1
                if len(entry) == 3:
                    ev = entry[2]
                    ev._sim = None
                    ev.callback(*ev.args)
                    self._recycle(ev)
                else:
                    entry[2](*entry[3])
                executed += 1
            return executed
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute the next event. Returns False if the heap is empty."""
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            if len(entry) == 3:
                ev = entry[2]
                if ev.cancelled:
                    self._cancelled_in_heap -= 1
                    self._recycle(ev)
                    continue
            self._fire(entry)
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Drain the event heap.

        Args:
            until: stop once virtual time would exceed this value; the
                clock is advanced to ``until`` on return.
            max_events: safety valve against runaway simulations; raises
                :class:`SimulationError` when exceeded.

        Returns:
            The virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant: run() called from a callback")
        self._running = True
        executed = 0
        heap = self._heap  # compaction rebuilds in place, so this stays valid
        pop = _heappop
        try:
            if until is None and max_events is None:
                # Fast path: no budget checks inside the inner loop.
                while heap:
                    entry = pop(heap)
                    if len(entry) == 3:
                        ev = entry[2]
                        if ev.cancelled:
                            self._cancelled_in_heap -= 1
                            self._recycle(ev)
                            continue
                        ev._sim = None
                        self._pending -= 1
                        self.now = entry[0]
                        self._events_processed += 1
                        ev.callback(*ev.args)
                        self._recycle(ev)
                    else:
                        self._pending -= 1
                        self.now = entry[0]
                        self._events_processed += 1
                        entry[2](*entry[3])
                return self.now
            while heap:
                entry = heap[0]
                if len(entry) == 3 and entry[2].cancelled:
                    ev = entry[2]
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    self._recycle(ev)
                    continue
                if until is not None and entry[0] > until:
                    break
                pop(heap)
                # _fire, inlined: a method call per event is a tenth of
                # the loop, and the budgeted form is the one sliced runs
                # (every --seconds budget, the benchmark) go through.
                self._pending -= 1
                self.now = entry[0]
                self._events_processed += 1
                if len(entry) == 3:
                    ev = entry[2]
                    ev._sim = None
                    ev.callback(*ev.args)
                    self._recycle(ev)
                else:
                    entry[2](*entry[3])
                executed += 1
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}; "
                        "likely a livelock (self-rescheduling event loop)"
                    )
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self._running = False
