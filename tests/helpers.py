"""Shared builders for the test suite (importable without conftest magic)."""

from __future__ import annotations

import dataclasses

from repro.baselines import build_store
from repro.core import ChainReactionConfig, ChainReactionStore
from repro.net.message import WIRE_HEADER_BYTES, Message
from repro.sim.hlc import just_below
from repro.storage.merge import stamp_of
from repro.storage.store import Record
from repro.storage.version import intern_str


def make_store(**overrides) -> ChainReactionStore:
    """A small single-DC ChainReaction deployment for protocol tests."""
    defaults = dict(
        sites=("dc0",),
        servers_per_site=4,
        chain_length=3,
        ack_k=2,
        seed=7,
        service_time=0.0,  # protocol tests want latency without queueing
    )
    defaults.update(overrides)
    return ChainReactionStore(ChainReactionConfig(**defaults))


def make_geo_store(n_sites: int = 2, **overrides) -> ChainReactionStore:
    sites = tuple(f"dc{i}" for i in range(n_sites))
    return make_store(sites=sites, **overrides)


def run_op(store, future, extra: float = 1.0):
    """Advance virtual time just until a client operation resolves.

    Unlike ``sim.run(until=...)`` this stops at the resolution instant,
    so tests can interleave operations with precise timing.
    """
    deadline = store.sim.now + extra
    sim = store.sim
    while not future.done():
        if sim.now >= deadline or not sim.step():
            break
    assert future.done(), f"operation still pending at t={sim.now}"
    return future.result()


def build(protocol: str, **kwargs):
    """Registry passthrough with small-test defaults."""
    defaults = dict(servers_per_site=4, chain_length=3, seed=7)
    defaults.update(kwargs)
    return build_store(protocol, **defaults)


# ----------------------------------------------------------------------
# preload reference: one table per server
# ----------------------------------------------------------------------
# ``install_converged`` as it was before the shared base, kept as the
# oracle the base must equal: one ring lookup per (site, key) groups the
# keys into one ``key → Record`` table per server, and each server's own
# table takes its group through the convergent ``apply``, so no store
# has a base to read through. Same signature and return value; patch it
# over the facade module's ``install_converged`` to preload a twin this way.


def touched(base):
    """The keys of a ``ConvergedBase`` whose shared Record some replica
    has built (its slot holds the Record in place of the value)."""
    return [key for key, entry in base.entries.items() if type(entry) is Record]


def install_per_server(data, version, now, views, nodes, catalog):
    stamp = stamp_of(version)
    groups = {site: {name: {} for name in nodes[site]} for site in views}
    for key, value in data.items():
        key = intern_str(key)
        record = Record(key, value, version, stamp, now)
        for site, view in views.items():
            if not catalog.owns(site, key):
                continue
            for name in view.chain_for(key):
                groups[site][name][key] = record
    arbitrated = {}
    for site, site_groups in groups.items():
        arbitrated[site] = {}
        for name, group in site_groups.items():
            store = nodes[site][name].store
            arbitrated[site][name] = [k for k in group if store.get_record(k) is not None]
            for rec in group.values():
                store.apply(rec.key, rec.value, rec.version, rec.updated_at, rec.stamp)
    return arbitrated


# ----------------------------------------------------------------------
# wire-size reference
# ----------------------------------------------------------------------
# The reflective walk ``repro.net.message`` used before size plans and
# type-dispatched sizing, kept as the oracle both must equal: an
# ``isinstance`` ladder per value, ``getattr`` per field, nothing cached,
# annotations never consulted. (One addition: a nested message is walked
# here too instead of through its own — planned — ``size_bytes``.)

_REFERENCE_SCALARS = {bool: 1, int: 8, float: 8, type(None): 1}


def reference_estimate_size(value) -> int:
    scalar = _REFERENCE_SCALARS.get(type(value))
    if scalar is not None:
        return scalar
    if isinstance(value, Message) and type(value).size_bytes is Message.size_bytes:
        return reference_message_size(value)
    # An object that sizes itself wins over the container rungs: an
    # ``Address`` is a tuple and still 8 + len(site) + len(node) bytes.
    size_fn = getattr(value, "size_bytes", None)
    if callable(size_fn):
        return size_fn()
    if isinstance(value, (str, bytes)):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(reference_estimate_size(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            reference_estimate_size(k) + reference_estimate_size(v) for k, v in value.items()
        )
    if dataclasses.is_dataclass(value):
        return sum(
            reference_estimate_size(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return 8


def reference_message_size(msg: Message) -> int:
    """``WIRE_HEADER_BYTES`` plus the reference size of every field."""
    return WIRE_HEADER_BYTES + sum(
        reference_estimate_size(getattr(msg, f.name)) for f in dataclasses.fields(msg)
    )


# ----------------------------------------------------------------------
# HLC arithmetic reference
# ----------------------------------------------------------------------
# The integer-pure state transitions ``repro.sim.hlc`` kept as free
# functions before ``HybridClock.stamp`` / ``observe`` / ``peek`` took
# them inline, kept as the oracle the clock must equal: simulated time
# is quantized once, in ``wall_quantum``, and every transition maps a
# position ``(physical, logical)`` plus that quantum to the next one.


def wall_quantum(now: float) -> int:
    """Quantize simulated seconds to the HLC physical component."""
    return int(now * 1_000_000)


def clock_tick(physical: int, logical: int, wall: int):
    """Advance for minting a stamp: catch up to the wall quantum, or tick
    the logical counter when the wall has not moved past the clock."""
    if wall > physical:
        return (wall, 0)
    return (physical, logical + 1)


def clock_observe(physical: int, logical: int, s_physical: int, s_logical: int, wall: int):
    """Merge a remote stamp ``(s_physical, s_logical)`` then catch up to
    the wall quantum. Never moves the clock backwards."""
    if s_physical > physical or (s_physical == physical and s_logical > logical):
        physical = s_physical
        logical = s_logical
    if wall > physical:
        return (wall, 0)
    return (physical, logical)


def clock_peek(physical: int, logical: int, wall: int):
    """Current position without consuming a logical tick."""
    if wall > physical:
        return (wall, 0)
    return (physical, logical)


class ReferenceClock:
    """``HybridClock`` as it was composed from the four functions above:
    ``stamp`` / ``observe`` / ``peek`` return and track the same
    positions and the same ``max_skew``."""

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self.physical = 0
        self.logical = 0
        self.max_skew = 0

    def _note_skew(self, wall: int) -> None:
        self.max_skew = max(self.max_skew, self.physical - wall)

    def stamp(self, now: float):
        wall = wall_quantum(now)
        self.physical, self.logical = clock_tick(self.physical, self.logical, wall)
        self._note_skew(wall)
        return (self.physical, self.logical, self.origin)

    def observe(self, now: float, s_physical: int, s_logical: int) -> None:
        wall = wall_quantum(now)
        self.physical, self.logical = clock_observe(
            self.physical, self.logical, s_physical, s_logical, wall
        )
        self._note_skew(wall)

    def peek(self, now: float):
        physical, logical = clock_peek(self.physical, self.logical, wall_quantum(now))
        return (physical, logical, self.origin)


# ----------------------------------------------------------------------
# clock-plane stamp-set reference
# ----------------------------------------------------------------------
# The plain-dict bookkeeping ``GeoClockCore`` and ``ClockNodePlane`` kept
# before ``repro.core.clockplane.StampSet``, kept as the oracle it must
# equal: a ``stamp-key → (stamp, at)`` dict whose oldest entry is found by
# the linear scan ``GeoClockCore._visible`` ran on every inbound event,
# stale entries by a scan, and cut-passed entries by ``sorted`` over the
# keys (the shipped set's prune).


class LinearStampSet:
    def __init__(self) -> None:
        self.entries = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key) -> bool:
        return key in self.entries

    def add(self, stamp, at: float) -> None:
        self.entries[stamp.key()] = (stamp, at)

    def discard(self, key) -> None:
        self.entries.pop(key, None)

    def oldest(self):
        oldest = None
        for ts, _at in self.entries.values():
            if oldest is None or ts < oldest:
                oldest = ts
        return oldest

    def drop_through(self, key) -> None:
        for k in [k for k in sorted(self.entries) if k <= key]:
            del self.entries[k]

    def drop_stale(self, cutoff: float) -> None:
        for k in [k for k, rec in self.entries.items() if rec[1] < cutoff]:
            del self.entries[k]


def linear_visible(local_lst, pending: LinearStampSet, dc_ship):
    """``GeoClockCore._visible`` with the linear pending scan: the local
    LST, capped just below the oldest pending injection and by every
    peer's ship horizon."""
    visible = local_lst
    oldest = pending.oldest()
    if oldest is not None:
        below = just_below(oldest)
        if below < visible:
            visible = below
    for horizon in dc_ship.values():
        if horizon < visible:
            visible = horizon
    return visible
