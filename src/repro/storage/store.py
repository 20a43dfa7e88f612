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

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.storage.merge import ConflictResolver, LWWResolver, Stamp, stamp_of
from repro.storage.version import ZERO, VersionVector

__all__ = ["Record", "ApplyResult", "VersionedStore", "TOMBSTONE", "Tombstone"]


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
    stores hold one instance per key per replica, so the per-instance
    ``__dict__`` a dataclass carries dominated large-keyspace memory.

    **Never mutate a Record.** :meth:`VersionedStore.install` stores the
    instance it is handed, and preload hands the same instance to every
    replica of a key in every datacenter: a write replaces the store's
    slot with a new ``Record``, it does not edit the old one. Stability
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
    """Convergent versioned KV store used by every replica."""

    def __init__(self, resolver: Optional[ConflictResolver] = None):
        self._data: Dict[str, Record] = {}
        self._resolver = resolver or LWWResolver()
        self.writes_applied = 0
        self.writes_ignored = 0
        self.conflicts_resolved = 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Record]:
        """The live record for ``key``; None if absent or deleted."""
        rec = self._data.get(key)
        if rec is None or rec.is_deleted:
            return None
        return rec

    def get_record(self, key: str) -> Optional[Record]:
        """The raw record including tombstones; None only if never written."""
        return self._data.get(key)

    def version_of(self, key: str) -> VersionVector:
        rec = self._data.get(key)
        return rec.version if rec is not None else ZERO

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for rec in self._data.values() if not rec.is_deleted)

    def keys(self) -> Iterator[str]:
        return (k for k, rec in self._data.items() if not rec.is_deleted)

    def all_records(self) -> List[Record]:
        """Every record including tombstones — for anti-entropy / repair."""
        return list(self._data.values())

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
        if existing is None:
            rec = Record(key, value, version, stamp, now)
            self._data[key] = rec
            self.writes_applied += 1
            return ApplyResult(True, rec)

        if existing.version.dominates(version):
            self.writes_ignored += 1
            return ApplyResult(False, existing)

        if version.dominates(existing.version):
            rec = Record(key, value, version, stamp, now)
            self._data[key] = rec
            self.writes_applied += 1
            return ApplyResult(True, rec)

        winner_value, winner_stamp = self._resolver.resolve(
            existing.value, existing.stamp, value, stamp
        )
        rec = Record(key, winner_value, existing.version.merge(version), winner_stamp, now)
        self._data[key] = rec
        self.writes_applied += 1
        self.conflicts_resolved += 1
        return ApplyResult(True, rec, was_conflict=True)

    def install(self, records: Dict[str, Record]) -> Mapping[str, Record]:
        """Offer many already-built records at once (``key → record``).

        Same outcome as :meth:`apply` on each record's fields in mapping
        order, except that a key this store has never seen takes the
        given ``Record`` *instance* — callers share one instance across
        replicas. Keys already present go through the convergent
        :meth:`apply`. Returns the records stored as given: ``records``
        itself when that is all of them.

        **The store owns the mapping it is handed**: an empty store
        adopts ``records`` as its table (no second dictionary per
        server), so the caller must neither modify nor keep it, or the
        returned mapping, beyond reading it on the spot.
        """
        data = self._data
        fresh = records
        if not data:
            self._data = records
        elif data.keys().isdisjoint(records.keys()):
            data.update(records)
        else:
            fresh = {}
            for key, rec in records.items():
                if key in data:
                    self.apply(key, rec.value, rec.version, rec.updated_at, rec.stamp)
                else:
                    fresh[key] = rec
            data.update(fresh)
        self.writes_applied += len(fresh)
        return fresh

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
        return {k: rec.version for k, rec in self._data.items()}

    def records_newer_than(self, digest: Dict[str, VersionVector]) -> List[Record]:
        """Records the peer summarised by ``digest`` is missing or behind on."""
        out = []
        for key, rec in self._data.items():
            peer_version = digest.get(key)
            if peer_version is None or not peer_version.dominates(rec.version):
                out.append(rec)
        return out

    def clear(self) -> None:
        """Drop all data — models losing volatile state in a crash."""
        self._data.clear()

    def checksum_state(self) -> Tuple[Tuple[str, Any, VersionVector], ...]:
        """Canonical tuple of live state, for convergence assertions in tests."""
        return tuple(
            (rec.key, rec.value, rec.version)
            for rec in sorted(self._data.values(), key=lambda r: r.key)
        )
