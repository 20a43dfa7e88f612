"""DC-stability bookkeeping.

A version is **DC-stable** once the chain tail has applied it: every
chain position then holds it, so it can be read from any replica and can
safely anchor causal dependencies. Each server tracks, per key, the
highest stable version it has learnt of (stability notifications flow
tail → head), and parks *waiters* — futures belonging to puts or remote
updates whose dependencies have not stabilised yet.

The stable version per key only ever grows (vector merge), so waiters
resolve exactly once and in stability order.

Only the notices planes keep trackers (two per server half, one per
site half). A tracker holds entries only for keys that *need* one. The
owning plane installs a **floor** (:meth:`set_floor`) — what is stable
about a key with no live entry: a record installed converged answers
for itself, and so does the version of a key the ``notices+batch`` plane
sealed at the stability event that completed it. A server's two
trackers share the one floor. ``stable_version`` falls through to it, and a later ``record``
re-creates the entry merged with it. Entries appear at a key's first
overwrite (:meth:`adopt`) or notice and sealing drops them again
(:meth:`drop_entry`): a tracker is O(keys written), never O(keys). The
floor must only ever report versions that are genuinely stable — it is
a representation change, not a semantic one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.messages import WaitStable
from repro.errors import RequestTimeout
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Future
from repro.storage.version import VersionVector, dominates_entries

__all__ = ["DepWait", "StabilityTracker"]

_ZERO = VersionVector()


def _no_floor(key: str) -> VersionVector:
    return _ZERO


class StabilityTracker:  # repro: lint-ok(slots) — invariant monitor rebinds .record per instance
    """Per-server map of key → highest DC-stable version, with waiters.

    A key has an entry iff it was written since it was installed
    converged, or a transfer recorded it; the floor answers the rest.
    Entries are interned vectors: the per-entry cost is the dict slot.
    """

    def __init__(self) -> None:
        self._stable: Dict[str, VersionVector] = {}
        self._waiters: Dict[str, List[Tuple[VersionVector, Future]]] = {}
        #: O(1) mirror of the parked-future count (kept in record/wait)
        self._waiter_count = 0
        #: stable floor for keys without a live entry (see above)
        self._floor: Callable[[str], VersionVector] = _no_floor
        self.notifications = 0
        self.entries_sealed = 0

    def set_floor(self, floor: Callable[[str], VersionVector]) -> None:
        """Install the no-entry fallback used by :meth:`stable_version`."""
        self._floor = floor

    def stable_version(self, key: str) -> VersionVector:
        version = self._stable.get(key)
        if version is not None:
            return version
        return self._floor(key)

    def is_stable(self, key: str, version: VersionVector) -> bool:
        # stable_version and VersionVector.dominates, inlined: asked on
        # every hop of a put and of its stability cascade
        stable = self._stable.get(key)
        if stable is None:
            stable = self._floor(key)
        return dominates_entries(stable._entries, version._entries)

    def record(self, key: str, version: VersionVector) -> None:
        """Note that ``version`` of ``key`` is DC-stable; wake waiters."""
        stable = self._stable.get(key)
        if stable is None:
            stable = self._floor(key)
        # ``stable.merge(version)``, whose least upper bound is usually
        # ``version`` itself: the same operand, found by one scan
        new, old = version._entries, stable._entries
        if new != old and dominates_entries(new, old):
            merged = version
        else:
            merged = stable.merge(version)
        self._stable[key] = merged
        self.notifications += 1
        waiters = self._waiters.get(key)
        if not waiters:
            return
        still_waiting = []
        for wanted, fut in waiters:
            if merged.dominates(wanted):
                fut.try_set_result(True)
                self._waiter_count -= 1
            else:
                still_waiting.append((wanted, fut))
        if still_waiting:
            self._waiters[key] = still_waiting
        else:
            del self._waiters[key]

    def record_all(self, keys: Iterable[str], version: VersionVector) -> None:
        """:meth:`record` ``version`` for every key in ``keys``, in order."""
        for key in keys:
            self.record(key, version)

    def adopt(self, key: str, version: VersionVector) -> None:
        """Unseal ``key``: make ``version`` — what the floor answered for
        it — its live entry unless it has one. Not a notification: the
        answer does not change, so no waiter is parked at or below it."""
        self._stable.setdefault(key, version)

    def wait(self, sim: Simulator, key: str, version: VersionVector) -> Future:
        """A future resolving (to True) once ``version`` is DC-stable."""
        fut = Future(sim)
        if self.is_stable(key, version):
            fut.set_result(True)
        else:
            self._waiters.setdefault(key, []).append((version, fut))
            self._waiter_count += 1
        return fut

    def pending_waiters(self) -> int:
        return self._waiter_count

    def has_waiters(self, key: str) -> bool:
        return key in self._waiters

    # ------------------------------------------------------------------
    # sealing (metadata GC)
    # ------------------------------------------------------------------
    def drop_entry(self, key: str) -> bool:
        """Seal ``key``: forget its live entry, relying on the floor.

        The caller must have verified that the floor dominates the
        entry being dropped (otherwise ``stable_version`` would move
        backwards) and that the key has no parked waiters.
        """
        if key in self._waiters or key not in self._stable:
            return False
        del self._stable[key]
        self.entries_sealed += 1
        return True

    def tracked_keys(self) -> List[str]:
        """Keys with a live entry, in insertion order (memory census)."""
        return list(self._stable)

    def entry_count(self) -> int:
        return len(self._stable)

    def raw_entry(self, key: str) -> Optional[VersionVector]:
        """The live entry itself, None when sealed/unknown (GC predicate)."""
        return self._stable.get(key)

    def snapshot(self) -> Dict[str, VersionVector]:
        """Copy of the stable map — used for chain-repair state transfer."""
        return dict(self._stable)


class DepWait:
    """One dependency of a write held back for it, in continuation form:
    the asking side of :meth:`StabilityTracker.wait`.

    Asks the dependency's chain tail (a :class:`WaitStable`, answered by
    an ``Ack``) whether ``version`` of ``key`` is DC-stable. A
    ``RequestTimeout`` re-asks whoever the tail is by then — view
    changes mid-wait — until ``dep_wait_timeout`` has passed. Then exactly one
    of ``parent.dep_done(stable)`` and ``parent.dep_failed()``:
    ``stable`` is False when time ran out (the write proceeds anyway —
    the dependency can only be missing for good if its data was lost,
    and then no reader can observe it and waiting longer helps nobody),
    and the wait has *failed* when ``actor`` went down under it.

    ``actor`` is the chain head holding a put, or the geo proxy holding
    a remote update. A head that is itself the dependency's tail asks
    its own plane, for all the time that is left rather than one request
    attempt's worth. A host whose plane hears the key's stability
    (``plane.hears_stability``: the notices proxies, told by every tail
    of their site) first waits on that plane for one attempt, entered in
    its deadline table as if it had asked itself, so a crash fails it
    like a request; only if no word came does it ask the tail — a
    ``TailStable`` is lost with a crashed tail's in-flight messages, or
    with the proxy when it was down at the stability event.

    Asks inline, from the constructor: the parent may hear back before
    the constructor returns (a crashed actor's request fails at once, an
    already-stable local answer resolves at once).
    """

    __slots__ = (
        "_actor", "_parent", "_key", "_version", "_deadline", "_attempt", "_local", "_timer",
        "_overhear", "_rid",
    )

    def __init__(self, actor: Any, parent: Any, key: str, version: VersionVector) -> None:
        self._actor = actor
        self._parent = parent
        self._key = key
        self._version = version
        timeout = actor.config.dep_wait_timeout
        self._deadline = actor.sim.now + timeout
        #: one request's share of it
        self._attempt = max(timeout / 3.0, 0.05)
        #: the local answer being waited for; None over a request, and again
        #: once its deadline fired (its late answer is then ignored)
        self._local: Optional[Future] = None
        #: whether the first attempt waits on the host's own plane
        self._overhear = actor.plane.hears_stability(key)
        self._ask()

    def _ask(self) -> None:
        actor = self._actor
        sim = actor.sim
        now = sim.now
        if now >= self._deadline:
            self._parent.dep_done(False)
            return
        remaining = self._deadline - now
        if self._overhear:
            self._overhear = False
            self._overheard(actor, min(self._attempt, remaining))
            return
        view = actor.view
        tail = view.address_of(view.chain_for(self._key)[-1])
        if tail == actor.address:
            answer = self._local = actor.plane.wait_stable(self._key, self._version)
            self._timer: ScheduledEvent = sim.schedule(remaining, self._local_timeout)
            answer.add_callback(self._local_answer)
        else:
            rid = actor._open_request(self, min(self._attempt, remaining), "wait_stable", tail)
            if rid:
                actor.send(tail, WaitStable(request_id=rid, key=self._key, version=self._version))

    def _overheard(self, actor: Any, span: float) -> None:
        answer = actor.plane.wait_stable(self._key, self._version)
        if answer.done():
            self._parent.dep_done(True)
            return
        # Its own request id: the deadline table times the attempt out
        # (``rpc_failed``, then the tail is asked), and fails it at once
        # if the host crashes.
        self._rid = actor._expect_reply(self, span, "wait_stable", actor.address)
        answer.add_callback(self._answered)

    def _answered(self, _answer: Future) -> None:
        # Still in the table: neither timed out nor failed by a crash.
        if self._actor._rpc_pending.pop(self._rid, None) is not None:
            self._parent.dep_done(True)

    def _local_answer(self, answer: Future) -> None:
        if answer is self._local:
            self._local = None
            self._timer.cancel()
            self._timer.release()
            self._parent.dep_done(True)

    def _local_timeout(self) -> None:
        self._local = None
        self._ask()

    def rpc_reply(self, _ack: Any) -> None:
        self._parent.dep_done(True)

    def rpc_failed(self, exc: BaseException) -> None:
        if isinstance(exc, RequestTimeout):
            self._ask()
        else:
            self._parent.dep_failed()
