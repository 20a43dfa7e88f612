"""Deterministic hybrid logical clocks for the clock stability plane.

The clock plane (``ChainReactionConfig.stability``) stamps
every write with a hybrid logical clock (HLC) value: a *physical*
component quantized from simulated time plus a *logical* counter that
breaks ties when several stamps land in the same physical quantum
(Kulkarni et al., and the Okapi datastore's stabilization scheme).
Everything here is driven off :class:`repro.sim.kernel.Simulator` time,
so stamps are bit-deterministic across runs and across the sharded
engine's worker counts.

Total order
-----------
Stamps order lexicographically by ``(physical, logical, origin)``.
``origin`` is the stamping entity (``"site:server"``) and is unique per
clock, so two stamps from *different* clocks never compare equal and a
single clock's stamps are strictly monotone — the order is total with
no ties, which the stability cut machinery relies on (``min`` over
stamp sets is unambiguous).

``NO_HLC``
----------
Messages shared between both planes carry an ``hlc`` field so the clock
plane can piggyback stamps without new message types on the hot path.
On the notices plane that field must be *invisible*: :data:`NO_HLC` is
a singleton placeholder whose :meth:`~_NoHLC.size_bytes` is ``0``, so
``net.message.estimate_size`` charges nothing for it and the golden
trace is byte-identical with the clock plane off.  It pickles back to
the module singleton so identity checks survive the sharded engine's
envelope boundary.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "HLCStamp",
    "STAMP_WIRE_BYTES",
    "HLC_ZERO",
    "NO_HLC",
    "HybridClock",
    "just_below",
    "hlc_or_none",
]

#: physical quantum: microseconds of simulated time
_PHYSICAL_SCALE = 1_000_000

#: modeled wire size of a stamp: 8B physical + 2B logical + 2B origin id
STAMP_WIRE_BYTES = 12

#: writes a slot past :meth:`HLCStamp.__setattr__`'s immutability guard
_set = object.__setattr__


class HLCStamp:
    """An immutable hybrid logical clock value.

    Ordered by ``(physical, logical, origin)``; see the module docstring
    for why that order is total.  That tuple is built once, at
    construction, and is what :meth:`key` returns and every comparison
    and the hash compare — tuple order runs in C, with no allocation
    per comparison.  The wire-size model is a flat
    :data:`STAMP_WIRE_BYTES` (origins are modeled as interned ids, not
    strings, matching how a real implementation would encode them).
    """

    __slots__ = ("physical", "logical", "origin", "_key")

    def __init__(self, physical: int, logical: int, origin: str) -> None:
        _set(self, "physical", physical)
        _set(self, "logical", logical)
        _set(self, "origin", origin)
        _set(self, "_key", (physical, logical, origin))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HLCStamp is immutable")

    def key(self) -> Tuple[int, int, str]:
        return self._key

    def size_bytes(self) -> int:
        return STAMP_WIRE_BYTES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HLCStamp):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "HLCStamp") -> bool:
        return self._key < other._key

    def __le__(self, other: "HLCStamp") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "HLCStamp") -> bool:
        return self._key > other._key

    def __ge__(self, other: "HLCStamp") -> bool:
        return self._key >= other._key

    def __repr__(self) -> str:
        return f"HLC({self.physical},{self.logical},{self.origin})"

    def __reduce__(self) -> Tuple[type, Tuple[int, int, str]]:
        return (HLCStamp, self._key)


#: the bottom element: compares <= every real stamp
HLC_ZERO = HLCStamp(0, 0, "")


class _NoHLC:
    """Zero-size placeholder for ``hlc`` fields on the notices plane."""

    __slots__ = ()

    def size_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NO_HLC"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self) -> Tuple[object, Tuple[object, ...]]:
        return (_restore_no_hlc, ())


NO_HLC = _NoHLC()


def _restore_no_hlc() -> _NoHLC:
    return NO_HLC


def hlc_or_none(value: object) -> Optional[HLCStamp]:
    """Map a message ``hlc`` field to a real stamp or ``None``."""

    return value if isinstance(value, HLCStamp) else None


def just_below(stamp: HLCStamp) -> HLCStamp:
    """A conservative predecessor of ``stamp``.

    There is no exact predecessor in HLC space, but the empty origin
    sorts below every real origin, so ``(physical, logical, "")`` is
    strictly below ``stamp`` (when ``stamp`` has a real origin) yet at
    or above every stamp with a smaller ``(physical, logical)`` prefix.
    Used to report "everything strictly before this in-flight write is
    covered" without over-advancing past concurrent same-quantum stamps
    from other origins — those compare above the empty origin only by
    their origin id, and under-advancing is always safe.
    """

    if not stamp.origin:
        return stamp
    return HLCStamp(stamp.physical, stamp.logical, "")


class HybridClock:
    """A per-entity HLC source driven by simulated time.

    ``stamp()`` mints a strictly increasing stamp; ``observe()`` merges
    a remote stamp (never moves backwards); ``peek()`` reads the current
    position without consuming a logical tick.  Every stamp minted
    after a ``peek()`` compares strictly greater than the peeked value,
    which is what lets an idle server report ``peek()`` as its
    low-stamp floor.
    """

    __slots__ = ("_sim", "origin", "_physical", "_logical", "max_skew")

    def __init__(self, sim: "SimClock", origin: str) -> None:
        self._sim = sim
        self.origin = origin
        self._physical = 0
        self._logical = 0
        #: max (clock physical - wall physical) seen, in quanta — the
        #: "HLC skew" gauge surfaced by metrics.protocol
        self.max_skew = 0

    def stamp(self) -> HLCStamp:
        # Catch up to the wall quantum, or tick the logical counter when
        # the wall has not moved past the clock.
        wall = int(self._sim.now * _PHYSICAL_SCALE)
        if wall > self._physical:
            self._physical = wall
            self._logical = 0
        else:
            self._logical += 1
        skew = self._physical - wall
        if skew > self.max_skew:
            self.max_skew = skew
        return HLCStamp(self._physical, self._logical, self.origin)

    def observe(self, stamp: object) -> None:
        # Merge the remote position, then catch up to the wall quantum;
        # never moves the clock backwards.
        if not isinstance(stamp, HLCStamp):
            return
        wall = int(self._sim.now * _PHYSICAL_SCALE)
        physical = self._physical
        logical = self._logical
        s_physical = stamp.physical
        if s_physical > physical or (
            s_physical == physical and stamp.logical > logical
        ):
            physical = s_physical
            logical = stamp.logical
        if wall > physical:
            physical = wall
            logical = 0
        self._physical = physical
        self._logical = logical
        skew = physical - wall
        if skew > self.max_skew:
            self.max_skew = skew

    def peek(self) -> HLCStamp:
        wall = int(self._sim.now * _PHYSICAL_SCALE)
        if wall > self._physical:
            return HLCStamp(wall, 0, self.origin)
        return HLCStamp(self._physical, self._logical, self.origin)


class SimClock:
    """Structural protocol for the ``sim`` argument: anything with ``now``."""

    __slots__ = ()

    now: float
