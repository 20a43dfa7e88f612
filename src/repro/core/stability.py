"""DC-stability bookkeeping.

A version is **DC-stable** once the chain tail has applied it: every
chain position then holds it, so it can be read from any replica and can
safely anchor causal dependencies. Each server tracks, per key, the
highest stable version it has learnt of (stability notifications flow
tail → head), and parks *waiters* — futures belonging to puts or remote
updates whose dependencies have not stabilised yet.

The stable version per key only ever grows (vector merge), so waiters
resolve exactly once and in stability order.

Metadata GC (``config.metadata_gc``) adds *sealing*: a key whose newest
record is fully stable needs no tracker entry — the record the server
already stores (its ``_stable_records`` slot) answers every stability
query exactly. The owning server installs that lookup as the tracker's
**floor** (:meth:`set_floor`) and then drops sealed entries
(:meth:`drop_entry`); ``stable_version`` falls through to the floor for
keys with no live entry, and a later ``record`` re-creates the entry
merged with the floor. The floor must only ever report versions that
are genuinely stable — sealing is a representation change, not a
semantic one.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.process import Future
from repro.storage.version import VersionVector

__all__ = ["StabilityTracker"]

_ZERO = VersionVector()


class StabilityTracker:  # repro: lint-ok(slots) — invariant monitor rebinds .record per instance
    """Per-server map of key → highest DC-stable version, with waiters.

    Entry payloads are interned :class:`VersionVector` instances, so a
    tracker over a million keys stores a million dict slots pointing at
    a handful of shared vectors — the per-entry cost is the dict slot.
    """

    def __init__(self) -> None:
        self._stable: Dict[str, VersionVector] = {}
        self._waiters: Dict[str, List[Tuple[VersionVector, Future]]] = {}
        #: O(1) mirror of the parked-future count (kept in record/wait)
        self._waiter_count = 0
        #: stable floor for keys without a live entry (sealing; see above)
        self._floor: Optional[Callable[[str], VersionVector]] = None
        self.notifications = 0
        self.entries_sealed = 0

    def set_floor(self, floor: Callable[[str], VersionVector]) -> None:
        """Install the sealed-key fallback used by :meth:`stable_version`."""
        self._floor = floor

    def stable_version(self, key: str) -> VersionVector:
        version = self._stable.get(key)
        if version is not None:
            return version
        if self._floor is not None:
            return self._floor(key)
        return _ZERO

    def is_stable(self, key: str, version: VersionVector) -> bool:
        return self.stable_version(key).dominates(version)

    def record(self, key: str, version: VersionVector) -> None:
        """Note that ``version`` of ``key`` is DC-stable; wake waiters."""
        merged = self.stable_version(key).merge(version)
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

    def record_all(self, keys: Collection[str], version: VersionVector) -> None:
        """:meth:`record` ``version`` for every key in ``keys``, in order.

        A key with no entry, no floor to merge with and no waiter to wake
        needs none of the per-key work — its new entry is ``version``
        itself — so a tracker that holds nothing yet takes the whole
        batch in one dictionary update.
        """
        stable = self._stable
        per_key = self._floor is not None or len(self._waiters) > 0
        if not per_key and not stable:
            stable.update(dict.fromkeys(keys, version))
            self.notifications += len(keys)
            return
        for key in keys:
            if per_key or key in stable:
                self.record(key, version)
            else:
                stable[key] = version
                self.notifications += 1

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
        """Keys with a live entry, in insertion order (GC scan input)."""
        return list(self._stable)

    def entry_count(self) -> int:
        return len(self._stable)

    def raw_entry(self, key: str) -> Optional[VersionVector]:
        """The live entry itself, None when sealed/unknown (GC predicate)."""
        return self._stable.get(key)

    def snapshot(self) -> Dict[str, VersionVector]:
        """Copy of the stable map — used for chain-repair state transfer."""
        return dict(self._stable)
