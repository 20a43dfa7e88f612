"""Memory accounting: tracemalloc peaks and a live-object census.

Two complementary views of a deployment's memory:

- :class:`TracedPeak` / :func:`traced_call` measure what a block of
  code *allocated* — ``tracemalloc`` traced current/peak bytes, a
  peak-RSS proxy. Python-level accounting (it sees every object the
  interpreter allocates) rather than true RSS, but deterministic and
  machine-independent.
- :func:`memory_census` walks a live datastore and counts what is
  *retained*, subsystem by subsystem, using the same ``size_bytes``
  wire-size protocol the network accounting uses — so "bytes of
  records" here means the payload bytes those structures pin, not
  interpreter overhead. The census also surfaces the PR 5 pooled
  structures: the version-vector intern pool, dependency-table column
  cells, and the simulator's recycled event handles.

Everything is duck-typed (``getattr``) so the census degrades
gracefully across protocols — subsystems a deployment lacks simply
report zero.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster.ring import HashRing
from repro.cluster.server_base import Holding, PreloadPlacement
from repro.storage.store import ConvergedBase, VersionedStore
from repro.storage.version import intern_stats

__all__ = ["TracedPeak", "traced_call", "memory_census", "census_totals"]


class TracedPeak:
    """Context manager capturing tracemalloc current/peak for a block.

    Nest-safe: if tracing is already on, the block piggybacks on the
    outer trace (peak is reset so the reading is block-local) and does
    not stop it on exit.
    """

    __slots__ = ("current_bytes", "peak_bytes", "_owns_trace")

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self._owns_trace = False

    def __enter__(self) -> "TracedPeak":
        self._owns_trace = not tracemalloc.is_tracing()
        if self._owns_trace:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.current_bytes, self.peak_bytes = tracemalloc.get_traced_memory()
        if self._owns_trace:
            tracemalloc.stop()


def traced_call(fn: Callable[[], Any]) -> Tuple[Any, int, int]:
    """Run ``fn`` under tracemalloc; returns (result, current, peak) bytes."""
    with TracedPeak() as trace:
        result = fn()
    return result, trace.current_bytes, trace.peak_bytes


def _census_records(stores: List[VersionedStore]) -> Tuple[int, int]:
    """``(objects, bytes)`` of every record ``stores`` hold, tombstones
    included, building no ``Record`` for a preloaded key nothing touched.

    Stores that read through one shared base under a :class:`Holding`
    rule are sized in one pass over the base: each key is placed once
    per preload ring and counted for every server, in every site, that
    holds it, at the size of that server's own record if the key was
    written there. Every store walking the whole base by itself would
    place each key once per store. The rule is :meth:`Holding.holds`,
    read off its holding: sites sharing a ring share one placement of a
    key.
    """
    objects = size = 0
    shared: Dict[int, Tuple[ConvergedBase, Dict[PreloadPlacement, Dict[str, VersionedStore]]]] = {}
    for store in stores:
        base, holding = store.base, getattr(store.holds, "__self__", None)
        if base is not None and type(holding) is Holding:
            sites = shared.setdefault(id(base), (base, {}))[1]
            sites.setdefault(holding.placement, {})[holding.name] = store
        else:
            for record_size in store.record_sizes():
                objects += 1
                size += record_size
    for base, sites in shared.values():
        rings: Dict[Tuple[HashRing, int], List[Tuple[bool, Any, Dict[str, VersionedStore]]]] = {}
        for placement, holders in sites.items():
            rings.setdefault((placement.ring, placement.length), []).append(
                (placement.owns_all, placement.owned, holders)
            )
        for key, entry in base.entries.items():
            entry_size = None
            for (ring, length), ring_sites in rings.items():
                chain = ring.place(key, length)
                for owns_all, owned, holders in ring_sites:
                    if not owns_all and not owned(key):
                        continue
                    for name in chain:
                        store = holders.get(name)
                        if store is None:
                            continue
                        objects += 1
                        record = store.own_record(key)
                        if record is not None:
                            size += record.size_bytes()
                        else:
                            if entry_size is None:
                                entry_size = base.record_size(key, entry)
                            size += entry_size
        for holders in sites.values():
            for store in holders.values():
                for _, record in store.first_written():
                    objects += 1
                    size += record.size_bytes()
    return objects, size


def _census_nodes(nodes: Any) -> Dict[str, Dict[str, int]]:
    stab_entries = stab_bytes = 0
    record_dep_entries = 0
    log_entries = log_bytes = 0
    stores = []
    for node in nodes:
        store = getattr(node, "store", None)
        if store is not None and hasattr(store, "record_sizes"):
            stores.append(store)
            log = getattr(store, "log", None)
            if log is not None:
                log_entries += len(log)
                log_bytes += getattr(log, "bytes_written", 0)
        plane = getattr(node, "plane", None)
        for tracker_name in ("stability", "global_stability"):
            tracker = getattr(plane, tracker_name, None)
            if tracker is None or not hasattr(tracker, "tracked_keys"):
                continue
            for key in tracker.tracked_keys():
                version = tracker.raw_entry(key)
                stab_entries += 1
                stab_bytes += 4 + len(key) + (version.size_bytes() if version else 0)
        record_deps = getattr(node, "_record_deps", None)
        if record_deps:
            record_dep_entries += sum(len(deps) for deps in record_deps.values())
    rec_objects, rec_bytes = _census_records(stores)
    return {
        "records": {"objects": rec_objects, "bytes": rec_bytes},
        "stability": {"objects": stab_entries, "bytes": stab_bytes},
        "record_deps": {"objects": record_dep_entries, "bytes": 0},
        "durable_log": {"objects": log_entries, "bytes": log_bytes},
    }


def memory_census(store: Any) -> Dict[str, Dict[str, int]]:
    """Per-subsystem live object/byte census of a deployment.

    ``bytes`` are wire-protocol sizes (the ``size_bytes`` protocol);
    ``objects`` are live entry counts. Gauge-only subsystems (intern
    pool, event pool) report their own stat dicts.
    """
    servers = getattr(store, "servers", None)
    nodes = list(servers()) if callable(servers) else []
    census = _census_nodes(nodes)

    dep_entries = dep_bytes = dep_slots = 0
    for session in list(getattr(store, "_sessions", ())):
        table = getattr(session, "_deps", None)
        if table is None:
            continue
        dep_entries += len(table)
        size_fn = getattr(table, "size_bytes", None)
        if size_fn is not None:
            dep_bytes += size_fn()
        column_slots = getattr(table, "column_slots", None)
        if column_slots is not None:
            dep_slots += column_slots()
    census["dep_tables"] = {
        "objects": dep_entries,
        "bytes": dep_bytes,
        "column_slots": dep_slots,
    }

    census["vv_intern_pool"] = intern_stats()
    sim = getattr(store, "sim", None)
    pool_stats = getattr(sim, "event_pool_stats", None)
    if pool_stats is not None:
        census["event_pool"] = pool_stats()
    return census


def census_totals(census: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Sum the object/byte columns of a census (gauge sections excluded)."""
    objects = 0
    payload_bytes = 0
    for name, row in census.items():
        if name in ("vv_intern_pool", "event_pool"):
            continue
        objects += row.get("objects", 0)
        payload_bytes += row.get("bytes", 0)
    return {"objects": objects, "bytes": payload_bytes}
