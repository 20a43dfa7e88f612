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

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.storage.merge import ConflictResolver, LWWResolver, Stamp, stamp_of
from repro.storage.version import ZERO, VersionVector

__all__ = [
    "Record", "ConvergedBase", "ApplyResult", "VersionedStore", "TOMBSTONE", "Tombstone",
    "installed",
]


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

    **Never mutate a Record, or the base that holds it.** A preloaded
    key's ``Record`` is built on first touch, then shared: the first
    replica to look the key up builds it into the base's shared table
    (:class:`ConvergedBase`), and every replica of the key in every
    datacenter answers from that instance. A write puts a new ``Record``
    in the writing store's own table, it does not edit the shared one.
    Stability leans on it too: a record installed converged has no
    tracker entry and answers for itself by its version
    (``NoticesPlane.mark_converged``).
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
        return _record_size(self.key, self.value, self.version)

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


def _record_size(key: str, value: Any, version: VersionVector) -> int:
    from repro.net.message import estimate_size

    return estimate_size(key) + estimate_size(value) + version.size_bytes()


class ConvergedBase:
    """One converged install, shared by every replica it lands on.

    ``entries`` is one table in install order: ``key → value`` at the one
    ``version`` (and its stamp) and install time ``at``. A key's
    :class:`Record` is built on first touch, then shared: :meth:`share`
    builds it the first time any replica looks the key up and puts it in
    the key's slot in place of the value, and every later lookup answers
    with that instance. An entry is therefore a value or, once touched,
    its ``Record`` (so a preloaded value is never itself a ``Record``);
    the caller never edits the table.
    """

    __slots__ = ("entries", "version", "stamp", "at")

    def __init__(self, entries: Dict[str, Any], version: VersionVector, at: float = 0.0) -> None:
        self.entries = entries
        self.version = version
        self.stamp = stamp_of(version)
        self.at = at

    def share(self, key: str) -> Record:
        """``key``'s shared Record, built (and shared) on first touch."""
        entry = self.entries[key]
        if type(entry) is Record:
            return entry
        rec = self.entries[key] = Record(key, entry, self.version, self.stamp, self.at)
        return rec

    def record(self, key: str, entry: Any) -> Record:
        """The Record of ``key``'s ``entry`` (a base entry, or any Record):
        the Record itself, else a new one that is not shared — how
        iteration reads the base without touching it."""
        if type(entry) is Record:
            return entry
        return Record(key, entry, self.version, self.stamp, self.at)

    def record_size(self, key: str, entry: Any) -> int:
        """The wire size of :meth:`record` of ``key``'s ``entry``, without
        building a Record for it."""
        if type(entry) is Record:
            return entry.size_bytes()
        return _record_size(key, entry, self.version)

    def value(self, key: str) -> Any:
        """``key``'s preloaded value, touched or not."""
        entry = self.entries[key]
        return entry.value if type(entry) is Record else entry


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

    State is two tables. The *base* is a :class:`ConvergedBase` shared by
    every replica a preload installed (:meth:`install`), with a rule for
    which of its keys this store holds; the store's own table holds only
    what was written here since. Lookups try the own table, then the
    base's table (one C-level ``dict.get``), and build a held key's
    ``Record`` only if no replica has yet: built on first touch, then
    shared. Versions, counts, iteration and sizes read the base without
    building anything. Iteration yields one table's order: the held base
    keys in base order, each as last written here, then the keys first
    written here.
    """

    def __init__(self, resolver: Optional[ConflictResolver] = None):
        self._data: Dict[str, Record] = {}
        self._base: Optional[ConvergedBase] = None
        self._holds: Callable[[str], bool] = _holds_nothing
        #: how many base keys ``_holds`` admits, counted on first use
        self._held: Optional[int] = None
        self._resolver = resolver or LWWResolver()
        self._writes_applied = 0
        self.writes_ignored = 0
        self.conflicts_resolved = 0

    @property
    def writes_applied(self) -> int:
        """Writes that took effect here, each held base record counted once."""
        return self._writes_applied + self._held_count()

    @property
    def base(self) -> Optional[ConvergedBase]:
        """The shared base this store reads through; None if it has none."""
        return self._base

    @property
    def holds(self) -> Callable[[str], bool]:
        """The fixed rule for which keys of :attr:`base` this store holds."""
        return self._holds

    def _held_count(self) -> int:
        """How many base keys this store holds. Counted once, on first
        use: the base and its rule are fixed until :meth:`clear`."""
        if self._held is None:
            base, holds = self._base, self._holds
            self._held = 0 if base is None else sum(1 for key in base.entries if holds(key))
        return self._held

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
            entry = self._base.entries.get(key, _ABSENT)
            if entry is _ABSENT or not self._holds(key):
                return None
            if type(entry) is not Record:
                entry = self._base.share(key)
            return entry
        return rec

    def version_of(self, key: str) -> VersionVector:
        """``key``'s stored version, ZERO if never written; builds nothing."""
        rec = self._data.get(key)
        if rec is not None:
            return rec.version
        base = self._base
        if base is not None and key in base.entries and self._holds(key):
            return base.version
        return ZERO

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _, rec in self.items() if not rec.is_deleted)

    def keys(self) -> Iterator[str]:
        return (k for k, rec in self.items() if not rec.is_deleted)

    def all_records(self) -> List[Record]:
        """Every record including tombstones — for anti-entropy / repair."""
        return [rec for _, rec in self.items()]

    def items(self) -> Iterator[Tuple[str, Record]]:
        """``(key, record)`` for every record, tombstones included, in one
        table's order. A base key no replica has touched comes as a new
        ``Record`` that is not shared: iterating touches nothing."""
        base = self._base
        if base is None:
            yield from self._data.items()
            return
        record = base.record
        for key, entry in self._walk():
            yield key, record(key, entry)

    def record_sizes(self) -> Iterator[int]:
        """The wire size of each record :meth:`items` yields, in its order,
        without building a ``Record`` for a base key nothing has touched."""
        base = self._base
        for key, entry in self._walk():
            yield entry.size_bytes() if base is None else base.record_size(key, entry)

    def _walk(self) -> Iterator[Tuple[str, Any]]:
        """One table's order: the held base keys in base order, each as
        last written here, then the keys first written here. A held base
        key never written here comes as its base entry, which is its
        value if no replica has touched it."""
        data, base = self._data, self._base
        if base is None:
            yield from data.items()
            return
        holds, mine = self._holds, data.get
        for key, entry in base.entries.items():
            if holds(key):
                rec = mine(key)
                yield key, entry if rec is None else rec
        yield from self.first_written()

    def own_record(self, key: str) -> Optional[Record]:
        """``key``'s record as last written here; None if this store never
        wrote it (it may still hold it through the base)."""
        return self._data.get(key)

    def first_written(self) -> Iterator[Tuple[str, Record]]:
        """``(key, record)`` for each key first written here — the own
        table's keys that are not held base keys — in own-table order."""
        base = self._base
        if base is None:
            yield from self._data.items()
            return
        holds, entries = self._holds, base.entries
        for key, rec in self._data.items():
            if key not in entries or not holds(key):
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
        # get_record, inlined: every replica's write asks this
        existing = self._data.get(key)
        if existing is None and self._base is not None:
            existing = self._base.entries.get(key, _ABSENT)
            if existing is _ABSENT or not self._holds(key):
                existing = None
            elif type(existing) is not Record:
                existing = self._base.share(key)
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

    def install(self, base: ConvergedBase, holds: Callable[[str], bool]) -> List[str]:
        """Take the entries of ``base`` (shared by every replica) whose keys
        ``holds`` admits, as installed writes.

        Same outcome as :meth:`apply` on each held entry in base order,
        except that a key this store has never seen answers with the
        base's shared ``Record``: built on first touch, then shared. An
        empty store keeps ``base`` and ``holds`` themselves — no per-key
        work and nothing of its own — so ``holds`` must be a fixed rule.
        A store that already holds state offers each held key in turn:
        one it holds is arbitrated through the convergent :meth:`apply`,
        any other is stored as given. Returns the keys arbitrated, ``[]``
        on an empty store; :func:`installed` lists the keys stored as
        given.
        """
        if self._base is None and not self._data:
            self._base, self._holds, self._held = base, holds, None
            return []
        arbitrated = []
        data = self._data
        for key in base.entries:
            if not holds(key):
                continue
            if self.get_record(key) is None:
                data[key] = base.share(key)
                self._writes_applied += 1
            else:
                self.apply(key, base.value(key), base.version, base.at, base.stamp)
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
        return {k: rec.version for k, rec in self.items()}

    def records_newer_than(self, digest: Dict[str, VersionVector]) -> List[Record]:
        """Records the peer summarised by ``digest`` is missing or behind on."""
        out = []
        for key, rec in self.items():
            peer_version = digest.get(key)
            if peer_version is None or not peer_version.dominates(rec.version):
                out.append(rec)
        return out

    def clear(self) -> None:
        """Drop all data, this store's hold on the base included — models
        losing volatile state in a crash. The base and its shared records
        stay with every other replica."""
        self._writes_applied = self.writes_applied  # the count is not state
        self._data.clear()
        self._base, self._holds, self._held = None, _holds_nothing, None

    def checksum_state(self) -> Tuple[Tuple[str, Any, VersionVector], ...]:
        """Canonical tuple of live state, for convergence assertions in tests."""
        return tuple(
            (rec.key, rec.value, rec.version)
            for rec in sorted(self.all_records(), key=lambda r: r.key)
        )


def _holds_nothing(key: str) -> bool:
    return False


_ABSENT = object()


def installed(
    base: ConvergedBase, holds: Callable[[str], bool], arbitrated: List[str]
) -> Iterator[str]:
    """The keys :meth:`VersionedStore.install` stored as given, in base
    order: every held key it did not arbitrate. Each stands at the base's
    ``version`` / ``stamp`` with the value :meth:`ConvergedBase.value`."""
    skip = set(arbitrated)
    return (key for key in base.entries if key not in skip and holds(key))
