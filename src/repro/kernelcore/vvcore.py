"""Version-vector entry math (compilation-clean core).

Pure functions over the *canonical entries tuple* — ``(dc, counter)``
pairs, sorted by datacenter id, zero counters elided — that backs
:class:`repro.storage.version.VersionVector`. The interpreted class
stays in ``storage/version.py`` (together with the intern pools, which
are module-level mutable state and therefore barred from this package);
its hot methods delegate here through rebindable module globals so the
compiled copy (``repro._compiled.vvcore``) can be swapped in at runtime.

Identity contract: :func:`merge_entries` and :func:`increment_entries`
return one of their *operand tuples* whenever the result equals it.
The shell maps "returned operand ``a``" to "return ``self``" (and ``b``
to ``other``), preserving the object-identity fast paths the memory
model depends on — merges against ZERO and already-dominating merges
allocate nothing in either backend.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "Entries",
    "get_entry",
    "total_entries",
    "increment_entries",
    "merge_entries",
    "dominates_entries",
    "entries_size_bytes",
]

#: canonical form: sorted by dc id, no zero counters
Entries = Tuple[Tuple[str, int], ...]


def get_entry(entries: Entries, dc: str) -> int:
    """Counter for ``dc``; missing entries are implicitly zero.

    Linear scan on purpose: real vectors have one entry per datacenter
    (single digits), where a scan over a tuple beats building any map.
    """
    for name, n in entries:
        if name == dc:
            return n
    return 0


def total_entries(entries: Entries) -> int:
    """Sum of all counters — the number of writes the version reflects."""
    total = 0
    for _, n in entries:
        total += n
    return total


def increment_entries(entries: Entries, dc: str) -> Entries:
    """Entries with ``dc``'s counter bumped by one (re-canonicalised)."""
    updated = dict(entries)
    updated[dc] = updated.get(dc, 0) + 1
    return tuple(sorted(updated.items()))


def merge_entries(a: Entries, b: Entries) -> Entries:
    """Pointwise maximum — the least upper bound under causality.

    Returns the operand tuple itself whenever it already is the least
    upper bound (``a`` when it dominates or equals, ``b`` when it does),
    so the shell can forward the corresponding *vector* without
    allocating. The comparison ladder mirrors ``VersionVector.merge``
    exactly; parity between backends depends on taking the same branch
    for the same inputs.
    """
    if not b or b == a:
        return a
    if not a:
        return b
    merged = dict(a)
    changed = False
    for dc, n in b:
        if n > merged.get(dc, 0):
            merged[dc] = n
            changed = True
    if not changed:
        return a
    if len(merged) == len(b):
        matches_b = True
        for dc, n in b:
            if merged[dc] != n:
                matches_b = False
                break
        if matches_b:
            return b
    return tuple(sorted(merged.items()))


def dominates_entries(a: Entries, b: Entries) -> bool:
    """True iff ``a`` ≥ ``b`` pointwise (reflexive)."""
    if a is b:  # the common case: an interned version against itself
        return True
    for dc, n in b:
        if get_entry(a, dc) < n:
            return False
    return True


def entries_size_bytes(entries: Entries) -> int:
    """Wire size: 4B count + one (4B dc-id + len + 8B counter) per entry."""
    size = 4
    for dc, _ in entries:
        size += 4 + len(dc) + 8
    return size
