"""Version types for causal+ replication.

ChainReaction names versions with **version vectors carrying one entry
per datacenter** (not per server — chain order already serialises
updates inside a DC, so a single counter per DC suffices). In a single-
DC deployment the vector degenerates to one counter, which is exactly
the per-key sequence number the chain head assigns.

The partial order over vectors is causality: ``a < b`` iff every entry
of ``a`` is ≤ the matching entry of ``b`` and at least one is strictly
smaller. Incomparable vectors are *concurrent* — those are the writes
that the convergent conflict handler (the "+" in causal+) must resolve
identically at every replica.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "VersionVector",
    "ZERO",
    "set_interning",
    "interning_enabled",
    "intern_stats",
    "intern_str",
    "clear_intern_pool",
]

#: canonical form: sorted by dc id, no zero counters
_EntriesTuple = Tuple[Tuple[str, int], ...]


# ----------------------------------------------------------------------
# entry math over the canonical tuple; VersionVector's methods call these
# ----------------------------------------------------------------------
def get_entry(entries: _EntriesTuple, dc: str) -> int:
    """Counter for ``dc``; missing entries are implicitly zero.

    Linear scan on purpose: real vectors have one entry per datacenter
    (single digits), where a scan over a tuple beats building any map.
    """
    for name, n in entries:
        if name == dc:
            return n
    return 0


def total_entries(entries: _EntriesTuple) -> int:
    """Sum of all counters — the number of writes the version reflects."""
    total = 0
    for _, n in entries:
        total += n
    return total


def increment_entries(entries: _EntriesTuple, dc: str) -> _EntriesTuple:
    """Entries with ``dc``'s counter bumped by one (re-canonicalised)."""
    updated = dict(entries)
    updated[dc] = updated.get(dc, 0) + 1
    return tuple(sorted(updated.items()))


def merge_entries(a: _EntriesTuple, b: _EntriesTuple) -> _EntriesTuple:
    """Pointwise maximum — the least upper bound under causality.

    Identity contract: returns the operand tuple itself whenever it
    already is the least upper bound (``a`` when it dominates or equals,
    ``b`` when it does), so ``VersionVector.merge`` can forward the
    corresponding *vector* — merges against ZERO and already-dominating
    merges allocate nothing, which the memory model depends on. A ``b``
    that dominates (the usual stability notice) is found by one scan,
    before any dict is built.
    """
    if not b or b == a:
        return a
    if not a or dominates_entries(b, a):
        return b
    merged = dict(a)
    changed = False
    for dc, n in b:
        if n > merged.get(dc, 0):
            merged[dc] = n
            changed = True
    if not changed:
        return a
    return tuple(sorted(merged.items()))


def dominates_entries(a: _EntriesTuple, b: _EntriesTuple) -> bool:
    """True iff ``a`` ≥ ``b`` pointwise (reflexive).

    Scans ``a`` inline for each of ``b``'s entries: every stability
    question asks this, and a helper call per entry would be most of
    its cost.
    """
    if a is b:  # the common case: an interned version against itself
        return True
    for dc, n in b:
        for name, m in a:
            if name == dc:
                if m < n:
                    return False
                break
        else:  # ``a`` holds 0 for ``dc``; canonical ``n`` is never 0
            return False
    return True


def entries_size_bytes(entries: _EntriesTuple) -> int:
    """Wire size: 4B count + one (4B dc-id + len + 8B counter) per entry."""
    size = 4
    for dc, _ in entries:
        size += 4 + len(dc) + 8
    return size


# Intern pool: canonical entries tuple -> the one shared instance.  The
# pool is bounded (no eviction — overflow vectors are simply not pooled)
# so a pathological run cannot grow it without limit.  Safe because
# vectors are immutable and compare by value: pooling only collapses
# identity, never equality or hashing (``set_interning`` lets tests
# check exactly that).
_INTERN_MAX = 8192
_INTERN_ENABLED = True
_POOL: Dict[_EntriesTuple, "VersionVector"] = {}  # repro: lint-ok(module-mutable-state) — per-process intern pool; collapses identity only, rebuilt from pickled values on each worker
_STR_POOL: Dict[str, str] = {}  # repro: lint-ok(module-mutable-state) — per-process string intern pool, identity-only
_HITS = 0
_MISSES = 0


def set_interning(enabled: bool) -> bool:
    """Toggle vector and string interning; returns the previous setting.

    Test hook: a run with interning off must execute the same events and
    operations as one with it on, which is how the tests prove that
    behaviour never depends on vector identity.
    """
    global _INTERN_ENABLED
    previous = _INTERN_ENABLED
    _INTERN_ENABLED = bool(enabled)
    return previous


def interning_enabled() -> bool:
    return _INTERN_ENABLED


def intern_str(s: str) -> str:
    """``sys.intern`` under the :func:`set_interning` switch.

    Key and site-name strings are interned at their creation boundaries
    (workload generator, client API, preload, addresses) so every
    record, dependency column, and stability entry across all replicas
    pins one shared object per name.

    An own pool rather than ``sys.intern``: interpreter-interned strings
    are immortal and their table resizes get charged to whichever caller
    triggers them, while this pool is bounded (same cap as the vector
    pool, overflow passes through) and dropped by ``clear_intern_pool``.
    """
    if not _INTERN_ENABLED:
        return s
    pooled = _STR_POOL.get(s)
    if pooled is not None:
        return pooled
    if len(_STR_POOL) < _INTERN_MAX:
        _STR_POOL[s] = s
    return s


def intern_stats() -> Dict[str, int]:
    """Pool gauges: entries live, capacity, lookup hits/misses."""
    return {
        "enabled": int(_INTERN_ENABLED),
        "entries": len(_POOL),
        "str_entries": len(_STR_POOL),
        "capacity": _INTERN_MAX,
        "hits": _HITS,
        "misses": _MISSES,
    }


def clear_intern_pool() -> None:
    """Drop every pooled vector and string except the canonical ZERO
    (test/bench hook)."""
    global _HITS, _MISSES
    _POOL.clear()
    _STR_POOL.clear()
    _HITS = 0
    _MISSES = 0
    if "ZERO" in globals():
        _POOL[()] = ZERO


def _from_entries(entries: _EntriesTuple) -> "VersionVector":
    """Build (or fetch) a vector from an already-canonical entries tuple."""
    global _HITS, _MISSES
    if _INTERN_ENABLED:
        pooled = _POOL.get(entries)
        if pooled is not None:
            _HITS += 1
            return pooled
        _MISSES += 1
    inst = object.__new__(VersionVector)
    inst._entries = entries
    inst._stamp = None
    inst._size = 0
    if _INTERN_ENABLED and len(_POOL) < _INTERN_MAX:
        _POOL[entries] = inst
    return inst


def _rebuild_vv(entries: _EntriesTuple) -> "VersionVector":
    """Pickle/copy reconstructor — routes through the intern pool."""
    return _from_entries(tuple(entries))


class VersionVector:
    """An immutable mapping from datacenter id to update counter.

    Missing entries are implicitly zero, so vectors from deployments
    with different DC sets compare correctly.
    """

    __slots__ = ("_entries", "_stamp", "_size")

    _entries: _EntriesTuple

    def __new__(cls, entries: Mapping[str, int] = ()):
        cleaned = {dc: n for dc, n in dict(entries).items() if n != 0}
        for dc, n in cleaned.items():
            if n < 0:
                raise ValueError(f"negative counter for {dc!r}: {n}")
        canonical = tuple(sorted(cleaned.items()))
        if cls is VersionVector:
            return _from_entries(canonical)
        inst = object.__new__(cls)
        inst._entries = canonical
        inst._stamp = None
        inst._size = 0
        return inst

    def __reduce__(self):
        # Without this, unpickling a slotted interned class would call
        # ``cls.__new__(cls)`` — returning the shared ZERO — and then
        # write ``_entries`` onto it, corrupting the pooled instance
        # for every other holder.  Rebuild through the pool instead.
        return (_rebuild_vv, (self._entries,))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def get(self, dc: str) -> int:
        return get_entry(self._entries, dc)

    def entries(self) -> Dict[str, int]:
        return dict(self._entries)

    def datacenters(self) -> Tuple[str, ...]:
        return tuple(dc for dc, _ in self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def total(self) -> int:
        """Sum of all counters — the number of writes this version reflects."""
        return total_entries(self._entries)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def increment(self, dc: str) -> "VersionVector":
        return _from_entries(increment_entries(self._entries, dc))

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum — the least upper bound under causality.

        When one operand already dominates the other, the dominating
        vector *is* the least upper bound, so it is returned as-is —
        no dict build, no new object. Merges against ``ZERO`` and
        self-merges (both ubiquitous in stability bookkeeping) take
        this path. Safe for ``__eq__``/``__hash__`` users: the result
        compares equal to a freshly-built merge; only identity differs.
        """
        # merge_entries returns an *operand tuple* when it already is the
        # least upper bound; map tuple identity back to vector identity.
        merged = merge_entries(self._entries, other._entries)
        if merged is self._entries:
            return self
        if merged is other._entries:
            return other
        return _from_entries(merged)

    @staticmethod
    def join(vectors: Iterable["VersionVector"]) -> "VersionVector":
        """Least upper bound of many vectors.

        Sized 0- and 1-element inputs allocate nothing: the empty join
        is the canonical ``ZERO`` and a singleton join *is* its operand
        (``merge`` already returns operands verbatim, so this matches
        the loop result bit-for-bit — only the iteration is skipped).
        """
        if isinstance(vectors, (tuple, list)):
            if not vectors:
                return ZERO
            if len(vectors) == 1:
                return vectors[0]
        out = ZERO
        for vv in vectors:
            out = out.merge(vv)
        return out

    # ------------------------------------------------------------------
    # causality order
    # ------------------------------------------------------------------
    def dominates(self, other: "VersionVector") -> bool:
        """True iff ``self`` ≥ ``other`` pointwise (reflexive)."""
        return dominates_entries(self._entries, other._entries)

    def happens_before(self, other: "VersionVector") -> bool:
        """Strict causal precedence: ``self`` < ``other``."""
        return other.dominates(self) and self._entries != other._entries

    def concurrent_with(self, other: "VersionVector") -> bool:
        return not self.dominates(other) and not other.dominates(self)

    def total_order_key(self) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """Key for a deterministic total order extending causality.

        If ``a`` happens-before ``b`` then ``a.total() < b.total()``, so
        sorting by ``(total, entries)`` never inverts a causal pair; the
        lexicographic entry tuple breaks ties among concurrent vectors
        identically at every replica — this is the LWW arbitration rule.

        Interned vectors memoize the key: every replica storing a record
        of the same version then pins the *same* stamp tuple instead of
        one per record. Unpooled vectors (interning off, or pool
        overflow) recompute it, matching the pre-interning layout.
        """
        cached = self._stamp
        if cached is not None:
            return cached
        key = (self.total(), self._entries)
        if _INTERN_ENABLED:
            self._stamp = key
        return key

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, VersionVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __lt__(self, other: "VersionVector") -> bool:
        """Total order used for LWW arbitration (extends causality)."""
        return self.total_order_key() < other.total_order_key()

    def __le__(self, other: "VersionVector") -> bool:
        return self == other or self < other

    def size_bytes(self) -> int:
        """Wire size: one (dc-id, counter) pair per non-zero entry.
        Walked once per vector (it is immutable; 0 is no real size)."""
        size = self._size
        if not size:
            size = self._size = entries_size_bytes(self._entries)
        return size

    def __repr__(self) -> str:
        inner = ",".join(f"{dc}:{n}" for dc, n in self._entries)
        return f"VV({inner})"


#: The empty vector — causally before everything.
ZERO = VersionVector()
