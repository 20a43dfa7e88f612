"""One pass of one workload: set-up, sliced run, drain, stats — timed by phase.

A *pass* drives the public API only: ``build_store``,
``WorkloadRunner.setup()``, ``store.sim.run(until=...)``,
``finalize()``, ``store.protocol_stats()``. The run and drain are
advanced in short virtual-time slices (``sim.run(until=...)`` is
transparent to the simulation), which buys three things:

- **host-speed correction.** This class of host modulates its speed by
  up to 1.5x within seconds, so raw wall time has a 10-25 % run-to-run
  spread. A fixed pure-Python calibration loop (:func:`spin`) is timed
  between slices; a slice's *corrected* time is its wall time divided
  by ``adjacent spin time / SPIN_REF_S``. Every host-time metric is
  reported in these reference-host seconds (spread 3-4 %), with the raw
  wall time and the speed factor printed beside it.
- **robust rates.** ``ops_per_wall_s`` is the median over slices of
  ops / corrected seconds, so a burst of interference moves a few
  slices, not the result.
- **prefix digests.** Simulated counters are recorded at slice
  boundaries, so a shorter pass of the same seed (the verification
  pass) must reproduce the longer pass's counters at its own end.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker.causal import check_causal
from repro.checker.convergence import convergence_report
from repro.metrics.memory import census_totals, memory_census
from repro.metrics.reservoir import LatencyReservoir
from repro.sim.backend import active_kernel
from repro.storage.version import clear_intern_pool, intern_stats

from workloads import REFERENCE_SECONDS, Workload

__all__ = ["SPIN_REF_S", "run_pass", "spin", "verify_pass"]

#: what one :func:`spin` takes on the reference host, in seconds; fixes
#: the unit of every corrected time
SPIN_REF_S = 0.004
_SPIN_ITERATIONS = 9_000

#: window slices at the reference budget
_WINDOW_SLICES = 120
#: calibration readings averaged around an unsliceable (set-up, stats) step
_STEP_SPINS = 5
#: written keys checked for convergence after the drain
_CONVERGENCE_SAMPLE = 2_000

_clock = time.perf_counter


def spin() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    The mix (integer arithmetic, dict stores, heap pushes and pops of
    small tuples) mirrors what an event costs the simulator; it keeps at
    most 33 live tuples, so it does not trip the cyclic collector.
    """
    push, pop = heapq.heappush, heapq.heappop
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    acc = 0
    t0 = _clock()
    for i in range(_SPIN_ITERATIONS):
        acc += (i * i) % 7
        table[i & 63] = acc
        push(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            pop(heap)
    return _clock() - t0


class Meter:
    """Times steps between calibration readings."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._last: Optional[float] = None

    def _read(self, n: int) -> float:
        value = statistics.fmean(spin() for _ in range(n))
        self.readings.append(value)
        return value

    def timed(self, step: Callable[[], Any], spins: int = 1) -> Tuple[Any, float, float]:
        """Run ``step``; returns (result, wall seconds, corrected seconds)."""
        before = self._last if self._last is not None and spins == 1 else self._read(spins)
        t0 = _clock()
        result = step()
        wall = _clock() - t0
        after = self._last = self._read(spins)
        factor = (before + after) / 2.0 / SPIN_REF_S
        return result, wall, wall / factor

    def drift(self) -> float:
        """Largest relative spread between the medians of the quarters of
        this meter's readings — >0.15 marks a visibly noisy set."""
        n = len(self.readings)
        if n < 8:
            return 0.0
        quarter = n // 4
        medians = [
            statistics.median(self.readings[i * quarter : (i + 1) * quarter])
            for i in range(4)
        ]
        return (max(medians) - min(medians)) / statistics.median(medians)


def window_slices(seconds: float) -> int:
    return max(8, round(_WINDOW_SLICES * seconds / REFERENCE_SECONDS))


def prefix_slices(seconds: float) -> int:
    """How many window slices the verification pass runs."""
    return window_slices(seconds) // 4


def _counters(store: Any, result: Any) -> Tuple[int, int, int, int]:
    net = store.network.stats
    return (store.sim.events_processed, net.messages_sent, net.bytes_sent, result.ops_completed)


def _set_up(workload: Workload, seed: int, meter: Meter, record_history: bool, virtual_s: float) -> Dict[str, Any]:
    """One timed set-up: build + preload + open sessions."""
    gc.collect()
    clear_intern_pool()
    store, build_wall, build_s = meter.timed(lambda: workload.build(seed), _STEP_SPINS)
    runner = workload.runner(store, record_history, virtual_s)

    # Split preload from session opening without touching either: time
    # the store's own preload as WorkloadRunner.setup() calls it.
    preload = store.preload
    preload_wall = [0.0]

    def timed_preload(data: Dict[str, Any]) -> None:
        t0 = _clock()
        preload(data)
        preload_wall[0] = _clock() - t0

    store.preload = timed_preload
    start = store.sim.now
    result, setup_wall, setup_s = meter.timed(runner.setup, _STEP_SPINS)
    del store.preload
    share = preload_wall[0] / setup_wall if setup_wall else 0.0
    return {
        "store": store,
        "runner": runner,
        "result": result,
        "start": start,
        "build_s": build_s,
        "preload_s": setup_s * share,
        "open_sessions_s": setup_s * (1.0 - share),
        "setup_s": build_s + setup_s,
        "wall": build_wall + setup_wall,
    }


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Any = None,
    log_events: int = 0,
) -> Dict[str, Any]:
    """The measured pass (untraced, or traced when shims are installed).

    Returns JSON-ready numbers: corrected phase times, per-slice rates,
    exact simulated counters, and a digest of the latter.
    """
    meter = Meter()
    setups: List[Dict[str, float]] = []
    live: Dict[str, Any] = {}
    # Extra set-ups only feed the setup_s median; a traced pass would
    # count their spans against a wall time that leaves them out.
    for _ in range(workload.setups if tracer is None else 1):
        live.clear()  # free the previous deployment before building the next
        live = _set_up(workload, seed, meter, False, workload.virtual_s)
        setups.append({k: v for k, v in live.items() if k.endswith("_s")})
    store, runner, result = live["store"], live["runner"], live["result"]
    sim = store.sim

    n = window_slices(seconds)
    measure_from = live["start"] + workload.warmup_s
    n_warm = max(1, round(n * workload.warmup_s / workload.virtual_s))
    n_drain = max(2, n // 8)
    bounds = [live["start"] + workload.warmup_s * (i + 1) / n_warm for i in range(n_warm - 1)]
    bounds.append(measure_from)
    bounds += [measure_from + workload.virtual_s * i / n for i in range(1, n)]
    bounds.append(runner.stop_at)
    bounds += [runner.stop_at + workload.drain_s * (i + 1) / n_drain for i in range(n_drain)]
    first_window, first_drain = n_warm, n_warm + n

    slices: List[Tuple[float, float, Tuple[int, int, int, int]]] = []
    for index, bound in enumerate(bounds):
        if tracer is not None and index == first_window:
            tracer.log_next_events(log_events)
        _, wall, corrected = meter.timed(lambda: sim.run(until=bound))
        if tracer is not None:
            tracer.slice_done()
        slices.append((wall, corrected, _counters(store, result)))

    (result, stats), stats_wall, stats_s = meter.timed(
        lambda: (runner.finalize(), store.protocol_stats()), _STEP_SPINS
    )
    # Outside every timed phase: the census walks each record, which on
    # the large keyspace would be a sixth of wall_s spent in the harness.
    census = memory_census(store)

    window = slices[first_window:first_drain]
    before = [slices[first_window - 1][2]] + [s[2] for s in window[:-1]]
    deltas = [tuple(b - a for a, b in zip(prev, s[2])) for prev, s in zip(before, window)]
    ops_rates = [d[3] / s[1] for d, s in zip(deltas, window)]
    event_costs = [s[1] / d[0] * 1e6 for d, s in zip(deltas, window) if d[0]]
    window_start, window_end = slices[first_window - 1][2], window[-1][2]
    w_events, w_messages, w_bytes, w_ops = (b - a for a, b in zip(window_start, window_end))

    run_s = sum(s[1] for s in slices[:first_drain])
    drain_s = sum(s[1] for s in slices[first_drain:])
    window_wall = sum(s[0] for s in window)
    window_s = sum(s[1] for s in window)
    total_wall = live["wall"] + sum(s[0] for s in slices) + stats_wall
    total_s = live["setup_s"] + run_s + drain_s + stats_s

    net = store.network.stats
    meta = stats["metadata"]
    plane = stats["stability_plane"]
    pool = intern_stats()
    event_pool = sim.event_pool_stats()
    visibility = LatencyReservoir(1 << 17, seed=0)
    visibility.extend(stats.get("visibility_samples", []))
    attempted = result.ops_completed + result.errors
    summary = result.summary_row()
    rate_q = statistics.quantiles(ops_rates, n=4)

    exact = {
        "sim_throughput_ops_s": result.throughput,
        "sim_get_p50_ms": summary["get_p50_ms"],
        "sim_get_p99_ms": summary["get_p99_ms"],
        "sim_put_p50_ms": summary["put_p50_ms"],
        "sim_put_p99_ms": summary["put_p99_ms"],
        "sim_visibility_p50_ms": visibility.percentile(50) * 1000,
        "sim_visibility_p99_ms": visibility.percentile(99) * 1000,
        "wire_bytes_per_op": w_bytes / w_ops,
        "failed_op_share": result.errors / max(1, attempted),
        "sim.kernel.events": sim.events_processed,
        "sim.kernel.events_per_op": w_events / w_ops,
        "sim.kernel.event_pool_reuse_ratio": event_pool["reused"] / sim.events_processed,
        "net.network.messages": net.messages_sent,
        "net.network.messages_per_op": w_messages / w_ops,
        "net.network.bytes": net.bytes_sent,
        "net.network.cross_site_bytes": net.cross_site_bytes,
        "net.network.dropped": net.messages_dropped,
        "core.node.gets_served": stats["gets_served"],
        "core.node.puts_served": stats["puts_served"],
        "core.node.dep_waits": stats["dep_waits"],
        "core.node.dep_wait_timeouts": stats["dep_wait_timeouts"],
        "core.node.remote_applies": stats["remote_applies"],
        "core.node.rejected_ops": stats["rejected_ops"],
        "core.geo.updates_shipped": stats.get("updates_shipped", 0),
        "core.geo.updates_applied": stats.get("updates_applied", 0),
        "core.geo.shipping_messages": stats["shipping_messages"],
        "core.stability_plane.messages": plane["stability_messages"],
        "core.stability_plane.bytes": plane["stability_bytes"],
        # cross-DC stabilization traffic of either plane; exactly 0 in one DC
        "core.stability_plane.global_messages": net.count_of(
            "global-stable-notice", "global-stable-batch", "global-ack", "stability-vector"
        ),
        "core.stability_plane.stable_map_entries": meta["stable_map_entries"],
        "core.client.dep_table_entries": meta["dep_table_entries"],
        "core.client.dep_table_bytes": meta["dep_table_bytes"],
        "storage.version.intern_entries": pool["entries"],
        "storage.version.intern_hit_ratio": pool["hits"] / max(1, pool["hits"] + pool["misses"]),
        "metrics.memory.census_bytes": census_totals(census)["bytes"],
        "metrics.memory.census_bytes_per_key": census_totals(census)["bytes"] / workload.records,
    }
    counters = (sim.events_processed, net.messages_sent, net.bytes_sent, result.ops_completed)
    digest = hashlib.sha256(repr((counters, sorted(summary.items()))).encode()).hexdigest()[:16]

    out: Dict[str, Any] = {
        "exact": exact,
        "digest": digest,
        "prefix_counters": list(slices[first_window + prefix_slices(seconds) - 1][2]),
        "attempted": attempted,
        "failed": result.errors,
        "samples": {
            "get": result.get_latency.count,
            "put": result.put_latency.count,
            "visibility": visibility.count,
            "window_slices": n,
        },
        "setup_s": [s["setup_s"] for s in setups],
        "host": {
            "ops_per_wall_s": rate_q[1],
            "ops_per_wall_s_quartiles": [rate_q[0], rate_q[2]],
            "ops_per_wall_s_ratio_of_sums": w_ops / window_s,
            "wall_s_after_setup": run_s + drain_s + stats_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "core.datastore.build_s": [s["build_s"] for s in setups],
            "core.datastore.preload_s": [s["preload_s"] for s in setups],
            "workload.driver.open_sessions_s": [s["open_sessions_s"] for s in setups],
            "sim.kernel.run_s": run_s,
            "sim.kernel.drain_s": drain_s,
            "metrics.protocol.stats_s": stats_s,
            "sim.kernel.host_us_per_event": statistics.median(event_costs),
            "host.spin_s": statistics.median(meter.readings),
            "host.speed_factor": total_wall / total_s,
            "host.raw_wall_s": total_wall,
            "host.raw_ops_per_wall_s": w_ops / window_wall,
            "host.spin_drift": meter.drift(),
            "total_wall": total_wall,
        },
        "kernel_backend": active_kernel(),
    }
    if tracer is not None:
        out["layers"] = {name: [self_s, calls] for name, (self_s, calls) in tracer.totals().items()}
    return out


def verify_pass(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """A short ``record_history=True`` pass of the same seed: its counters
    must equal the measured pass's at the same virtual instant, its
    history must be causally consistent, and after the drain every
    sampled written key must have converged on all replicas."""
    meter = Meter()
    n = window_slices(seconds)
    virtual_s = workload.virtual_s * prefix_slices(seconds) / n
    live = _set_up(workload, seed, meter, True, virtual_s)
    store, runner = live["store"], live["runner"]
    store.sim.run(until=runner.stop_at)
    counters = _counters(store, live["result"])
    store.sim.run(until=runner.stop_at + workload.drain_s)
    result = runner.finalize()
    violations = check_causal(result.history)
    written = sorted({op.key for op in result.history.puts()})
    step = max(1, len(written) // _CONVERGENCE_SAMPLE)
    report = convergence_report(store, written[::step])
    return {
        "setup_s": [live["setup_s"]],
        "prefix_counters": list(counters),
        "history_ops": len(result.history),
        "causal_violations": len(violations),
        "first_violation": str(violations[0]) if violations else "",
        "keys_checked": report.checked,
        "keys_divergent": len(report.divergent),
        "failed": result.errors,
    }
