"""The per-server versioned key-value store.

Every replica in every protocol keeps its data here. The store enforces
the convergence discipline locally: an incoming write is applied only if
it causally dominates the stored version; concurrent writes go through
the convergent :class:`~repro.storage.merge.ConflictResolver`; stale or
duplicate writes are ignored. Given the same set of writes in any
order, two stores therefore end up identical — which is what makes the
convergence property checkable in tests.

Deletions are tombstones: a delete is a write of :data:`TOMBSTONE`
carrying a version, so it wins/loses against concurrent puts exactly
like any other write instead of resurrecting old data.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.storage.merge import ConflictResolver, LWWResolver, Stamp, stamp_of
from repro.storage.version import ZERO, VersionVector

__all__ = ["Record", "ApplyResult", "VersionedStore", "TOMBSTONE", "Tombstone", "installed"]


class Tombstone:
    """Singleton marker for deleted values."""

    _instance: Optional["Tombstone"] = None

    def __new__(cls) -> "Tombstone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TOMBSTONE>"

    def size_bytes(self) -> int:
        return 1


TOMBSTONE = Tombstone()


class Record:
    """One stored key: its current value and the version that produced it.

    ``version`` is the causal high-water mark (merged across conflicts);
    ``stamp`` is the immutable arbitration stamp of the write whose
    value survived — the pair that keeps conflict resolution
    order-independent.

    Hand-rolled slotted class (not ``dataclass(slots=True)`` — py3.9):
    large keyspaces hold one instance per key, so the per-instance
    ``__dict__`` a dataclass carries dominated their memory.

    **Never mutate a Record, or the base that holds it.** Preload builds
    one ``Record`` per key in one shared ``key → Record`` table, and every
    replica of the key in every datacenter answers from that instance
    (:meth:`VersionedStore.install`): a write puts a new ``Record`` in the
    writing store's own table, it does not edit the shared one. Stability
    leans on it too: a record installed converged has no tracker entry
    and answers for itself by its version (``ChainNode.mark_converged``).
    """

    __slots__ = ("key", "value", "version", "stamp", "updated_at")

    def __init__(
        self,
        key: str,
        value: Any,
        version: VersionVector,
        stamp: Tuple = (),
        updated_at: float = 0.0,
    ) -> None:
        self.key = key
        self.value = value
        self.version = version
        self.stamp = stamp
        self.updated_at = updated_at

    @property
    def is_deleted(self) -> bool:
        return self.value is TOMBSTONE

    def size_bytes(self) -> int:
        from repro.net.message import estimate_size

        return estimate_size(self.key) + estimate_size(self.value) + self.version.size_bytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self.key == other.key
            and self.value == other.value
            and self.version == other.version
            and self.stamp == other.stamp
            and self.updated_at == other.updated_at
        )

    def __hash__(self) -> int:
        return hash((self.key, self.version, self.stamp, self.updated_at))

    def __repr__(self) -> str:
        return (
            f"Record(key={self.key!r}, value={self.value!r}, "
            f"version={self.version!r}, stamp={self.stamp!r}, "
            f"updated_at={self.updated_at!r})"
        )


class ApplyResult:
    """Outcome of offering a write to the store (slotted; py3.9-safe)."""

    __slots__ = ("applied", "record", "was_conflict")

    def __init__(self, applied: bool, record: Record, was_conflict: bool = False) -> None:
        self.applied = applied
        self.record = record
        self.was_conflict = was_conflict

    def __repr__(self) -> str:
        return (
            f"ApplyResult(applied={self.applied!r}, record={self.record!r}, "
            f"was_conflict={self.was_conflict!r})"
        )


class VersionedStore:  # repro: lint-ok(slots) — invariant monitor rebinds .apply per instance
    """Convergent versioned KV store used by every replica.

    State is two tables. The *base* is a ``key → Record`` table shared by
    every replica a preload installed (:meth:`install`), with a rule for
    which of its keys this store holds; the store's own table holds only
    what was written here since. Lookups try the own table first, and
    iteration yields one table's order: the held base keys in base order,
    each as last written here, then the keys first written here.
    """

    def __init__(self, resolver: Optional[ConflictResolver] = None):
        self._data: Dict[str, Record] = {}
        self._base: Optional[Mapping[str, Record]] = None
        self._holds: Callable[[str], bool] = _holds_nothing
        self._resolver = resolver or LWWResolver()
        self._writes_applied = 0
        self.writes_ignored = 0
        self.conflicts_resolved = 0

    @property
    def writes_applied(self) -> int:
        """Writes that took effect here, each held base record counted once."""
        base = self._base
        if base is None:
            return self._writes_applied
        return self._writes_applied + sum(1 for key in base if self._holds(key))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Record]:
        """The live record for ``key``; None if absent or deleted."""
        rec = self.get_record(key)
        if rec is None or rec.is_deleted:
            return None
        return rec

    def get_record(self, key: str) -> Optional[Record]:
        """The raw record including tombstones; None only if never written."""
        rec = self._data.get(key)
        if rec is None and self._base is not None:
            rec = self._base.get(key)
            if rec is not None and not self._holds(key):
                return None
        return rec

    def version_of(self, key: str) -> VersionVector:
        # get_record, inlined (as in apply): the floor of every
        # never-written key asks this on each read
        rec = self._data.get(key)
        if rec is None and self._base is not None:
            rec = self._base.get(key)
            if rec is not None and not self._holds(key):
                rec = None
        return ZERO if rec is None else rec.version

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _, rec in self._items() if not rec.is_deleted)

    def keys(self) -> Iterator[str]:
        return (k for k, rec in self._items() if not rec.is_deleted)

    def all_records(self) -> List[Record]:
        """Every record including tombstones — for anti-entropy / repair."""
        return [rec for _, rec in self._items()]

    def _items(self) -> Iterator[Tuple[str, Record]]:
        data, base = self._data, self._base
        if base is None:
            yield from data.items()
            return
        holds, mine = self._holds, data.get
        for key, rec in base.items():
            if holds(key):
                yield key, mine(key, rec)
        for key, rec in data.items():
            if key not in base or not holds(key):
                yield key, rec

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(
        self,
        key: str,
        value: Any,
        version: VersionVector,
        now: float = 0.0,
        stamp: Optional[Tuple] = None,
    ) -> ApplyResult:
        """Offer a write; returns whether it took effect and the live record.

        - stored version dominates (or equals) the incoming one → ignored,
        - incoming strictly dominates → replaces,
        - concurrent → convergent resolution by stamp.

        ``stamp`` defaults to the arbitration stamp derived from
        ``version`` — correct whenever ``version`` is the write's
        *original* vector (every protocol propagation path). Pass the
        record's stored stamp explicitly when re-transmitting merged
        records (state transfer, anti-entropy, read repair).
        """
        if stamp is None:
            stamp = stamp_of(version)
        existing = self._data.get(key)
        if existing is None and self._base is not None:
            existing = self._base.get(key)
            if existing is not None and not self._holds(key):
                existing = None
        if existing is None:
            rec = Record(key, value, version, stamp, now)
            self._data[key] = rec
            self._writes_applied += 1
            return ApplyResult(True, rec)

        if existing.version.dominates(version):
            self.writes_ignored += 1
            return ApplyResult(False, existing)

        if version.dominates(existing.version):
            rec = Record(key, value, version, stamp, now)
            self._data[key] = rec
            self._writes_applied += 1
            return ApplyResult(True, rec)

        winner_value, winner_stamp = self._resolver.resolve(
            existing.value, existing.stamp, value, stamp
        )
        rec = Record(key, winner_value, existing.version.merge(version), winner_stamp, now)
        self._data[key] = rec
        self._writes_applied += 1
        self.conflicts_resolved += 1
        return ApplyResult(True, rec, was_conflict=True)

    def install(self, base: Mapping[str, Record], holds: Callable[[str], bool]) -> List[str]:
        """Take the records of ``base`` (``key → Record``, shared by every
        replica) whose keys ``holds`` admits, as installed writes.

        Same outcome as :meth:`apply` on each held record's fields in
        base order, except that a key this store has never seen answers
        with the base's ``Record`` *instance*. An empty store keeps
        ``base`` and ``holds`` themselves — no per-key work and nothing of
        its own — so neither may change afterwards: ``holds`` must be a
        fixed rule, and the caller never edits ``base``. A store that
        already holds state offers each held key in turn: one it holds is
        arbitrated through the convergent :meth:`apply`, any other is
        stored as given. Returns the keys arbitrated, ``[]`` on an empty
        store; :func:`installed` lists the records stored as given.
        """
        if self._base is None and not self._data:
            self._base, self._holds = base, holds
            return []
        arbitrated = []
        data = self._data
        for key, rec in base.items():
            if not holds(key):
                continue
            if self.get_record(key) is None:
                data[key] = rec
                self._writes_applied += 1
            else:
                self.apply(key, rec.value, rec.version, rec.updated_at, rec.stamp)
                arbitrated.append(key)
        return arbitrated

    def delete(
        self,
        key: str,
        version: VersionVector,
        now: float = 0.0,
        stamp: Optional[Tuple] = None,
    ) -> ApplyResult:
        """Apply a tombstone write."""
        return self.apply(key, TOMBSTONE, version, now, stamp)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def digest(self) -> Dict[str, VersionVector]:
        """key → version map, the unit of anti-entropy comparison."""
        return {k: rec.version for k, rec in self._items()}

    def records_newer_than(self, digest: Dict[str, VersionVector]) -> List[Record]:
        """Records the peer summarised by ``digest`` is missing or behind on."""
        out = []
        for key, rec in self._items():
            peer_version = digest.get(key)
            if peer_version is None or not peer_version.dominates(rec.version):
                out.append(rec)
        return out

    def clear(self) -> None:
        """Drop all data, the base included — models losing volatile
        state in a crash."""
        self._writes_applied = self.writes_applied  # the count is not state
        self._data.clear()
        self._base, self._holds = None, _holds_nothing

    def checksum_state(self) -> Tuple[Tuple[str, Any, VersionVector], ...]:
        """Canonical tuple of live state, for convergence assertions in tests."""
        return tuple(
            (rec.key, rec.value, rec.version)
            for rec in sorted(self.all_records(), key=lambda r: r.key)
        )


def _holds_nothing(key: str) -> bool:
    return False


def installed(
    base: Mapping[str, Record], holds: Callable[[str], bool], arbitrated: List[str]
) -> Iterator[Record]:
    """The records :meth:`VersionedStore.install` stored as given, in
    base order: every held key it did not arbitrate."""
    skip = set(arbitrated)
    return (rec for key, rec in base.items() if key not in skip and holds(key))
