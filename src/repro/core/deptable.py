"""Columnar client dependency table with copy-on-write snapshots.

The client session used to keep ``key → DepEntry`` in a plain dict and
copy the whole dict at the start of every put. At million-key scale
that costs one boxed ``DepEntry`` (+ its dict slot) per tracked key and
one full dict copy per write. This module stores the same mapping as
three parallel columns — keys, versions, chain indices — with a
``key → column slot`` index on the side:

- reads pull scalars straight out of the columns
  (:meth:`DepTable.version_for` / :meth:`DepTable.index_for`), no entry
  object materialised;
- a put takes a :class:`DepSnapshot` — an immutable view over the live
  column lists. The table marks itself *shared* and copies its columns
  only if a later mutation would overwrite a cell the snapshot can see
  (appends are invisible to the snapshot, which is bounded by its
  creation-time length, so the common observe-after-put path never
  copies);
- the table keeps its wire size as a running total, updated by every
  mutation, and hands it to each snapshot as ``wire_size``: it equals
  :func:`repro.core.messages.deps_size_bytes` over the same entries
  byte-for-byte, and neither a put's dependencies nor the per-op
  metadata gauge ever walks the columns.

Mutation semantics mirror a dict exactly (update-in-place keeps a key's
iteration position, delete + re-add moves it to the end), so trace
output and ``_record_deps`` merges on the server are order-identical.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    ItemsView,
    Iterator,
    KeysView,
    List,
    Optional,
    Tuple,
    ValuesView,
)

from repro.core.messages import DepEntry
from repro.net.message import inline_sized
from repro.sim.hlc import HLCStamp
from repro.storage.version import VersionVector

__all__ = ["DepTable", "DepSnapshot"]

#: Compact the columns once holes outnumber live entries past this size.
_COMPACT_MIN = 32



def _cell_size(key: str, version: VersionVector, hlc: Optional[HLCStamp]) -> int:
    """Wire bytes of one entry: length-prefixed key, vector, index and
    the stamp when there is one (``DepEntry.size_bytes`` plus the key)."""
    size = 8 + len(key) + version.size_bytes()
    return size if hlc is None else size + hlc.size_bytes()


class DepTable:
    """Flat column-store of the session's causal dependencies."""

    __slots__ = (
        "_keys", "_versions", "_indices", "_hlcs", "_slots", "_live", "_shared", "_size"
    )

    def __init__(self) -> None:
        self._keys: List[Optional[str]] = []
        self._versions: List[VersionVector] = []
        self._indices: List[int] = []
        #: HLC stamp column (clock plane); None cells cost zero wire bytes
        self._hlcs: List[Optional[HLCStamp]] = []
        self._slots: Dict[str, int] = {}
        self._live = 0
        self._shared = False
        #: wire size of the live entries (4: the map's count), kept by
        #: every mutation
        self._size = 4

    # ------------------------------------------------------------------
    # scalar reads (no entry objects)
    # ------------------------------------------------------------------
    def version_for(self, key: str) -> Optional[VersionVector]:
        slot = self._slots.get(key)
        return self._versions[slot] if slot is not None else None

    def index_for(self, key: str) -> Optional[int]:
        slot = self._slots.get(key)
        return self._indices[slot] if slot is not None else None

    def __contains__(self, key: str) -> bool:
        return key in self._slots

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # dict-compatible entry API (tests / invariant monitor)
    # ------------------------------------------------------------------
    def get(self, key: str, default: Optional[DepEntry] = None) -> Optional[DepEntry]:
        slot = self._slots.get(key)
        if slot is None:
            return default
        return DepEntry(self._versions[slot], self._indices[slot], self._hlcs[slot])

    def __getitem__(self, key: str) -> DepEntry:
        slot = self._slots.get(key)
        if slot is None:
            raise KeyError(key)
        return DepEntry(self._versions[slot], self._indices[slot], self._hlcs[slot])

    def __setitem__(self, key: str, entry: DepEntry) -> None:
        self.set(key, entry.version, entry.index, entry.hlc)

    def set(
        self,
        key: str,
        version: VersionVector,
        index: int,
        hlc: Optional[HLCStamp] = None,
    ) -> None:
        """Insert or update without boxing a :class:`DepEntry`."""
        slot = self._slots.get(key)
        if slot is not None:
            if self._shared:
                self._unshare()
            self._size += _cell_size(key, version, hlc) - _cell_size(
                key, self._versions[slot], self._hlcs[slot]
            )
            self._versions[slot] = version
            self._indices[slot] = index
            self._hlcs[slot] = hlc
            return
        # Appends never touch cells an outstanding snapshot can see.
        self._slots[key] = len(self._keys)
        self._keys.append(key)
        self._versions.append(version)
        self._indices.append(index)
        self._hlcs.append(hlc)
        self._live += 1
        self._size += _cell_size(key, version, hlc)

    def pop(self, key: str, default: Any = None) -> Any:
        slot = self._slots.pop(key, None)
        if slot is None:
            return default
        if self._shared:
            self._unshare()
        entry = DepEntry(self._versions[slot], self._indices[slot], self._hlcs[slot])
        self._keys[slot] = None  # hole; skipped on iteration
        self._live -= 1
        self._size -= _cell_size(key, entry.version, entry.hlc)
        holes = len(self._keys) - self._live
        if holes > self._live and len(self._keys) >= _COMPACT_MIN:
            self._compact()
        return entry

    def clear(self) -> None:
        # Fresh columns: an outstanding snapshot keeps the old ones.
        self._keys = []
        self._versions = []
        self._indices = []
        self._hlcs = []
        self._slots.clear()
        self._live = 0
        self._shared = False
        self._size = 4

    def __iter__(self) -> Iterator[str]:
        return (k for k in self._keys if k is not None)

    def keys(self) -> Iterator[str]:
        return iter(self)

    def items(self) -> Iterator[Tuple[str, DepEntry]]:
        for slot, key in enumerate(self._keys):
            if key is not None:
                yield key, DepEntry(
                    self._versions[slot], self._indices[slot], self._hlcs[slot]
                )

    def as_dict(self) -> Dict[str, DepEntry]:
        """Materialised copy — test/introspection surface only."""
        return dict(self.items())

    # ------------------------------------------------------------------
    # snapshots & sizing
    # ------------------------------------------------------------------
    def snapshot(self) -> "DepSnapshot":
        """Immutable view of the current entries (rides on a put)."""
        if len(self._keys) != self._live:
            self._compact()
        self._shared = True
        return DepSnapshot(
            self._keys, self._versions, self._indices, self._hlcs, self._live, self._size
        )

    def size_bytes(self) -> int:
        """Wire size, identical to ``deps_size_bytes`` over a dict."""
        return self._size

    def column_slots(self) -> int:
        """Allocated column cells including holes (census gauge)."""
        return len(self._keys)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _unshare(self) -> None:
        self._keys = list(self._keys)
        self._versions = list(self._versions)
        self._indices = list(self._indices)
        self._hlcs = list(self._hlcs)
        self._shared = False

    def _compact(self) -> None:
        keys: List[Optional[str]] = []
        versions: List[VersionVector] = []
        indices: List[int] = []
        hlcs: List[Optional[HLCStamp]] = []
        slots: Dict[str, int] = {}
        for slot, key in enumerate(self._keys):
            if key is not None:
                slots[key] = len(keys)
                keys.append(key)
                versions.append(self._versions[slot])
                indices.append(self._indices[slot])
                hlcs.append(self._hlcs[slot])
        self._keys = keys
        self._versions = versions
        self._indices = indices
        self._hlcs = hlcs
        self._slots = slots
        self._shared = False


@inline_sized
class DepSnapshot:
    """Frozen Mapping-compatible view over a table's columns.

    Bounded by the column length at creation time, so appends to the
    live table stay invisible; any in-place mutation copies the columns
    first (see :meth:`DepTable.set` / :meth:`DepTable.pop`). Protocol
    access (``dict()``, ``items()``) materialises one cached dict of
    :class:`DepEntry` lazily. ``wire_size`` is the table's running total
    when the snapshot was taken: a message carrying the snapshot reads
    it without a walk (a frozen view, so it can never go stale).
    """

    __slots__ = ("_keys", "_versions", "_indices", "_hlcs", "_count", "_dict", "wire_size")

    def __init__(
        self,
        keys: List[Optional[str]],
        versions: List[VersionVector],
        indices: List[int],
        hlcs: List[Optional[HLCStamp]],
        count: int,
        wire_size: int,
    ) -> None:
        self._keys = keys
        self._versions = versions
        self._indices = indices
        self._hlcs = hlcs
        self._count = count
        self._dict: Optional[Dict[str, DepEntry]] = None
        self.wire_size = wire_size

    def _materialize(self) -> Dict[str, DepEntry]:
        mapping = self._dict
        if mapping is None:
            mapping = {}
            for slot in range(self._count):
                key = self._keys[slot]
                if key is not None:
                    mapping[key] = DepEntry(
                        self._versions[slot], self._indices[slot], self._hlcs[slot]
                    )
            self._dict = mapping
        return mapping

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        return iter(self._materialize())

    def __contains__(self, key: object) -> bool:
        return key in self._materialize()

    def __getitem__(self, key: str) -> DepEntry:
        return self._materialize()[key]

    def get(self, key: str, default: Optional[DepEntry] = None) -> Optional[DepEntry]:
        return self._materialize().get(key, default)

    def keys(self) -> "KeysView[str]":
        return self._materialize().keys()

    def values(self) -> "ValuesView[DepEntry]":
        return self._materialize().values()

    def items(self) -> "ItemsView[str, DepEntry]":
        return self._materialize().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DepSnapshot):
            return self._materialize() == other._materialize()
        if isinstance(other, dict):
            return self._materialize() == other
        return NotImplemented

    def size_bytes(self) -> int:
        """Wire size — equals ``deps_size_bytes`` of the dict form."""
        return self.wire_size

    def __repr__(self) -> str:
        return f"DepSnapshot({self._materialize()!r})"
