"""Log-structured durable storage (FAWN-KV style).

The system the paper builds on, FAWN-KV, keeps its datastore as an
append-only log on flash with an in-memory index. This module
reproduces that shape: every applied write is appended to a
:class:`AppendLog` (the simulated durable medium), the
:class:`DurableStore` answers reads from memory, and after a crash that
wipes memory the store is rebuilt by replaying the log. A size-triggered
**compaction** rewrites the log down to the live records, bounding its
growth the way FAWN-KV's log cleaning does.

Durability here models *process* crashes (memory lost, disk kept) —
fail-stop with recovery. Chain repair still covers whatever the node
missed while it was down.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.storage.merge import ConflictResolver
from repro.storage.store import Record, VersionedStore, installed
from repro.storage.version import VersionVector

__all__ = ["LogEntry", "AppendLog", "DurableStore"]


class LogEntry:
    """One durable record of an applied write (tombstones included).

    Slotted hand-rolled class (py3.9-safe): durable runs append one per
    applied write, so the dataclass ``__dict__`` was the dominant cost
    of the simulated log.
    """

    __slots__ = ("key", "value", "version", "stamp")

    def __init__(self, key: str, value: Any, version: VersionVector, stamp: Tuple) -> None:
        self.key = key
        self.value = value
        self.version = version
        self.stamp = stamp

    def size_bytes(self) -> int:
        from repro.net.message import estimate_size

        return estimate_size(self.key) + estimate_size(self.value) + self.version.size_bytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogEntry):
            return NotImplemented
        return (
            self.key == other.key
            and self.value == other.value
            and self.version == other.version
            and self.stamp == other.stamp
        )

    def __hash__(self) -> int:
        return hash((self.key, self.version, self.stamp))

    def __repr__(self) -> str:
        return (
            f"LogEntry(key={self.key!r}, value={self.value!r}, "
            f"version={self.version!r}, stamp={self.stamp!r})"
        )


class AppendLog:
    """The simulated durable medium: append-only, survives crashes."""

    __slots__ = ("_entries", "appends", "bytes_written")

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self.appends = 0
        self.bytes_written = 0

    def append(self, entry: LogEntry) -> None:
        self._entries.append(entry)
        self.appends += 1
        self.bytes_written += entry.size_bytes()

    def entries(self) -> List[LogEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def rewrite(self, entries: List[LogEntry]) -> None:
        """Atomically replace the log contents (compaction output)."""
        self._entries = list(entries)

    def wipe(self) -> None:
        """Destroy the medium itself — models disk loss, not crash."""
        self._entries = []


class DurableStore(VersionedStore):  # repro: lint-ok(slots) — base keeps __dict__ for the invariant monitor
    """A versioned store whose applied writes are logged for recovery.

    - ``apply``/``delete``/``install`` append to the log *only when the
      write took effect* (dominated duplicates cost nothing, as in
      FAWN-KV where the index filters them before the log).
    - ``clear()`` models a crash: memory is lost, the log is not.
    - ``recover_from_log()`` rebuilds memory by replay; convergent apply
      makes replay order-insensitive and idempotent.
    - ``maybe_compact()`` rewrites the log to live records when it has
      grown past ``compact_ratio`` times the live set.
    """

    def __init__(
        self,
        resolver: Optional[ConflictResolver] = None,
        log: Optional[AppendLog] = None,
        compact_ratio: float = 4.0,
        min_compact_entries: int = 64,
    ):
        super().__init__(resolver)
        if compact_ratio < 1.0:
            raise ValueError(f"compact_ratio must be >= 1, got {compact_ratio}")
        self.log = log if log is not None else AppendLog()
        self.compact_ratio = compact_ratio
        self.min_compact_entries = min_compact_entries
        self.compactions = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # logged writes
    # ------------------------------------------------------------------
    def apply(self, key, value, version, now=0.0, stamp=None):
        result = super().apply(key, value, version, now, stamp)
        if result.applied:
            record = result.record
            self.log.append(LogEntry(key, value, version, record.stamp))
        return result

    def install(self, base: Mapping[str, Record], holds: Callable[[str], bool]) -> List[str]:
        arbitrated = super().install(base, holds)
        append = self.log.append
        for rec in installed(base, holds, arbitrated):
            append(LogEntry(rec.key, rec.value, rec.version, rec.stamp))
        return arbitrated

    # ------------------------------------------------------------------
    # crash & recovery
    # ------------------------------------------------------------------
    def recover_from_log(self) -> int:
        """Rebuild in-memory state by replaying the log; returns the
        number of entries replayed."""
        entries = self.log.entries()
        replayed = 0
        for entry in entries:
            # Replay through the convergent apply (NOT the logged apply,
            # which would duplicate the log) — idempotent by design.
            VersionedStore.apply(self, entry.key, entry.value, entry.version, 0.0, entry.stamp)
            replayed += 1
        self.recoveries += 1
        return replayed

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def live_entries(self) -> List[LogEntry]:
        """One entry per current record — the compacted image."""
        return [
            LogEntry(rec.key, rec.value, rec.version, rec.stamp)
            for rec in sorted(self.all_records(), key=lambda r: r.key)
        ]

    def should_compact(self) -> bool:
        live = max(len(self.all_records()), 1)
        return (
            len(self.log) >= self.min_compact_entries
            and len(self.log) > self.compact_ratio * live
        )

    def compact(self) -> int:
        """Rewrite the log to the live image; returns entries reclaimed."""
        before = len(self.log)
        self.log.rewrite(self.live_entries())
        self.compactions += 1
        return before - len(self.log)

    def maybe_compact(self) -> int:
        """Compact if the growth policy says so; returns entries reclaimed."""
        if self.should_compact():
            return self.compact()
        return 0
