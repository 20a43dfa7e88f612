"""Outside-in layer attribution: timing shims around each layer's entry points.

Nothing under ``src/`` knows about this file. :func:`install` replaces
class attributes with timing wrappers *before* any store is built —
handlers are bound at registration and deliveries at send time, so a
wrapper installed later would be bypassed. A layer is a module name
under ``repro.``; ``LAYER_POINTS`` says which entry points stand for it.

Each wrapper opens a span. A span's **self time** is its duration minus
the part its child spans cover, and it is summed online per layer (a
full log of the ~3 M spans of a run would not fit in memory). Generator
bodies get a driving generator that opens one span per resume, so the
time spent *inside* ``ChainClientSession._get_gen`` or
``SessionDriver._loop`` lands in ``core.client`` / ``workload.driver``
and ``sim.process`` keeps only the scheduling machinery.

Every scheduled callback is additionally wrapped in an *event* span, so
``sim.kernel`` self time is the heap and loop alone, and whatever a
callback does outside any shimmed function is reported as unattributed
instead of silently inflating the kernel.

``VersionVector`` and ``DepTable`` calls are too hot to shim (tens per
event); their time stays inside their callers' self time.

Shims are never removed: the traced pass runs in its own subprocess.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["EVENT", "LAYERS", "LAYER_POINTS", "Tracer", "install"]

#: pseudo-layer: time inside scheduled callbacks but outside every shim
EVENT = "event"

#: (layer, module, class, method patterns). Patterns match names defined
#: on that class itself; inherited methods are shimmed where defined.
LAYER_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.kernel", "repro.kernelcore.eventcore", "Simulator", ("run",)),
    ("sim.process", "repro.sim.process", "Process", ("__init__", "_advance")),
    ("sim.process", "repro.sim.process", "Future", ("set_result", "set_exception")),
    ("net.network.send", "repro.net.network", "Network", ("send",)),
    ("net.network.deliver", "repro.net.network", "Network", ("_deliver",)),
    ("net.message.size", "repro.net.message", "Message", ("size_bytes",)),
    (
        "net.actor",
        "repro.net.actor",
        "Actor",
        (
            "_receive", "_dispatch", "call", "_handle_rpc_request",
            "_handle_rpc_response", "_reply_from_future", "_rpc_timeout",
            "set_timer", "_fire_timer", "cancel_timer",
        ),
    ),
    (
        "core.node",
        "repro.core.node",
        "ChainNode",
        (
            "on_*", "rpc_*", "_serve_put", "_wait_dep", "handle_view_change",
            "_gc_tick", "_compaction_tick", "_sync_deadline",
        ),
    ),
    (
        "core.geo",
        "repro.core.geo",
        "GeoProxy",
        (
            "on_*", "rpc_*", "set_view", "_serve_forward_*", "_wait_dep_stable",
            "_inject_at_head",
        ),
    ),
    ("core.stability_plane", "repro.core.stability_plane", "NoticesPlane", ("[a-z]*",)),
    (
        "core.stability_plane",
        "repro.core.clockplane",
        "ClockNodePlane",
        ("[a-z]*", "_report_tick"),
    ),
    ("core.stability_plane", "repro.core.clockplane", "GeoClockCore", ("[a-z]*", "_tick")),
    ("core.stability_plane", "repro.core.clockplane", "ClockAgent", ("on_*", "set_view", "_tick")),
    ("core.stability_plane", "repro.core.batching", "Coalescer", ("flush_all", "_on_timer")),
    ("core.stability_plane", "repro.core.batching", "StabilityCoalescer", ("add",)),
    ("core.stability_plane", "repro.core.batching", "UpdateCoalescer", ("add",)),
    ("core.stability_plane", "repro.core.stability", "StabilityTracker", ("record",)),
    (
        "core.client",
        "repro.core.client",
        "ChainClientSession",
        (
            "get", "put", "delete", "multi_get", "on_put_reply", "_get_gen",
            "_put_gen", "_forward_get_gen", "_forward_put_gen", "_multi_get_gen",
            "_get_stable_one",
        ),
    ),
    ("core.client", "repro.cluster.client_base", "RetryingSession", ("_backoff_and_refresh", "close")),
    ("core.datastore.preload", "repro.core.datastore", "ChainReactionStore", ("preload",)),
    ("storage.store", "repro.storage.store", "VersionedStore", ("apply", "get", "get_record")),
    ("cluster", "repro.cluster.membership", "RingView", ("chain_for",)),
    ("cluster", "repro.cluster.membership", "ClusterManager", ("on_*", "rpc_*", "_check_failures", "_publish")),
    ("cluster", "repro.cluster.server_base", "RingServer", ("on_view_change", "_heartbeat_tick")),
    ("workload.driver", "repro.workload.driver", "SessionDriver", ("_loop", "_record")),
    ("workload.distributions", "repro.workload.distributions", "UniformKeys", ("choose",)),
    ("workload.distributions", "repro.workload.distributions", "ZipfianKeys", ("__init__", "choose")),
    ("workload.distributions", "repro.workload.distributions", "ScrambledZipfianKeys", ("choose",)),
    ("metrics.reservoir", "repro.metrics.reservoir", "LatencyReservoir", ("add",)),
    ("metrics.reservoir", "repro.metrics.series", "ThroughputTimeline", ("record",)),
)

#: every layer reported, in ledger order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(point[0] for point in LAYER_POINTS))


class Tracer:
    """Per-layer self-time and call totals, plus an optional span log."""

    def __init__(self) -> None:
        self.index: Dict[str, int] = {name: i for i, name in enumerate(LAYERS + (EVENT,))}
        self.self_s: List[float] = [0.0] * len(self.index)
        self.calls: List[int] = [0] * len(self.index)
        #: child-time accumulators of the open spans; the sentinel at the
        #: bottom absorbs root spans so wrappers never test for emptiness
        self.stack: List[float] = [0.0]
        #: span log, filled only while ``events_left`` > 0
        self.logging = False
        self.events_left = 0
        self.spans: List[Tuple[str, str, float, float, int, int]] = []

    def log_next_events(self, n: int) -> None:
        """Keep full spans for the next ``n`` scheduled callbacks, rounded
        up to whole slices (see :meth:`slice_done`)."""
        self.events_left = n
        self.logging = n > 0

    def slice_done(self) -> None:
        """Called between ``Simulator.run`` slices: stop logging once the
        quota is spent, so every logged event keeps its enclosing span."""
        if self.events_left <= 0:
            self.logging = False

    def totals(self) -> Dict[str, Tuple[float, int]]:
        return {name: (self.self_s[i], self.calls[i]) for name, i in self.index.items()}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable[..., Any], name: str, link_arg: int = 0) -> Callable[..., Any]:
        """A timing wrapper for ``fn``. ``link_arg`` > 0 records the id of
        that positional argument (the message) so a send span and the
        delivery span of the same message can be joined afterwards."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn, name)
        idx = self.index[layer]
        self_s, calls, stack, clock = self.self_s, self.calls, self.stack, time.perf_counter
        tracer = self

        def shim(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self_s[idx] += dt - stack.pop()
                calls[idx] += 1
                stack[-1] += dt
                if tracer.logging:
                    link = id(args[link_arg]) if link_arg else 0
                    tracer.spans.append((name, layer, t0, t1, len(stack), link))

        return functools.update_wrapper(shim, fn)

    def _wrap_generator(self, layer: str, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        idx = self.index[layer]
        self_s, calls, stack, clock = self.self_s, self.calls, self.stack, time.perf_counter
        tracer = self

        def drive(gen: Any) -> Any:
            # Behaves like ``yield from gen`` with a span around each
            # resume of the wrapped body.
            value: Any = None
            exc: Optional[BaseException] = None
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    yielded = gen.throw(exc) if exc is not None else gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    self_s[idx] += dt - stack.pop()
                    calls[idx] += 1
                    stack[-1] += dt
                    if tracer.logging:
                        tracer.spans.append((name, layer, t0, t1, len(stack), 0))
                try:
                    value, exc = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # noqa: BLE001 - forwarded into the body
                    value, exc = None, err

        def shim(*args: Any, **kwargs: Any) -> Any:
            return drive(fn(*args, **kwargs))

        return functools.update_wrapper(shim, fn)

    def wrap_scheduler(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrapper for ``Simulator.post_at`` / ``schedule_at``: the heap
        push is a ``sim.kernel`` span and the callback fires inside an
        event span."""
        push = self.wrap("sim.kernel", fn, name)
        idx = self.index[EVENT]
        self_s, calls, stack, clock = self.self_s, self.calls, self.stack, time.perf_counter
        tracer = self

        def shim(sim: Any, when: float, callback: Callable[..., Any], *args: Any) -> Any:
            def fire(*fire_args: Any) -> Any:
                stack.append(0.0)
                t0 = clock()
                try:
                    return callback(*fire_args)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    self_s[idx] += dt - stack.pop()
                    calls[idx] += 1
                    stack[-1] += dt
                    if tracer.logging:
                        label = getattr(callback, "__qualname__", None) or repr(callback)
                        tracer.spans.append(("event:" + label, EVENT, t0, t1, len(stack), 0))
                        tracer.events_left -= 1

            return push(sim, when, fire, *args)

        return functools.update_wrapper(shim, fn)

    # ------------------------------------------------------------------
    # span log
    # ------------------------------------------------------------------
    def chrome_trace(self) -> str:
        """The logged spans as Chrome-trace JSON (``chrome://tracing`` /
        Perfetto). Spans nest by time on one track; ``args.parent`` names
        the enclosing span, and flow arrows join ``Network.send`` to the
        ``Network._deliver`` of the same message object."""
        spans = sorted(self.spans, key=lambda s: (s[2], -s[3]))
        if not spans:
            return json.dumps({"traceEvents": []})
        origin = spans[0][2]
        events: List[Dict[str, Any]] = []
        open_spans: List[Tuple[int, float, str]] = []  # (depth, end, name)
        sends: Dict[int, float] = {}
        for name, layer, t0, t1, depth, link in spans:
            while open_spans and (open_spans[-1][1] <= t0 or open_spans[-1][0] >= depth):
                open_spans.pop()
            parent = open_spans[-1][2] if open_spans else ""
            open_spans.append((depth, t1, name))
            ts = (t0 - origin) * 1e6
            events.append(
                {
                    "name": name, "cat": layer, "ph": "X", "ts": ts,
                    "dur": (t1 - t0) * 1e6, "pid": 1, "tid": 1,
                    "args": {"parent": parent},
                }
            )
            if link and layer == "net.network.send":
                sends[link] = ts
                events.append({"name": "msg", "cat": "net", "ph": "s", "id": link, "ts": ts, "pid": 1, "tid": 1})
            elif link and link in sends:
                del sends[link]
                events.append({"name": "msg", "cat": "net", "ph": "f", "bp": "e", "id": link, "ts": ts, "pid": 1, "tid": 1})
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _matching(cls: type, patterns: Sequence[str]) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value)
        and any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)
    ]


def install(tracer: Tracer) -> None:
    """Install every shim of :data:`LAYER_POINTS`. Must run before
    ``build_store``."""
    for layer, module_name, class_name, patterns in LAYER_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in _matching(cls, patterns):
            label = f"{class_name}.{name}"
            link_arg = 3 if label in ("Network.send", "Network._deliver") else 0
            setattr(cls, name, tracer.wrap(layer, vars(cls)[name], label, link_arg))
    simulator = importlib.import_module("repro.kernelcore.eventcore").Simulator
    for name in ("post_at", "schedule_at"):
        setattr(simulator, name, tracer.wrap_scheduler(vars(simulator)[name], f"Simulator.{name}"))
