"""Runtime determinism sanitizer: twice-run trace diffing.

The golden-trace test pins *one* configuration forever; this module
checks *any* configuration on demand: run the same experiment twice
under the same seed, record every message the network fabric accepts,
and localize the first event where the two executions diverge. A
deterministic simulation produces byte-identical traces; any divergence
means wall-clock, unseeded randomness, or hash-order nondeterminism
leaked into the run — and the first divergent event points at the
culprit's neighbourhood.

The trace unit is the network send (virtual time, source, destination,
message type, wire size): every protocol action that can affect another
actor passes through :meth:`repro.net.network.Network.send`, so two runs
with identical send traces and identical event counts executed the same
protocol history.

Used by ``python -m repro sanitize`` and the analysis test-suite; the
invariant hooks in :mod:`repro.analysis.invariants` ride along on the
same runs.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.registry import build_store
from repro.workload import WorkloadRunner, workload

__all__ = [
    "Divergence",
    "MessageTap",
    "RunCapture",
    "SanitizeReport",
    "ShardedSanitizeReport",
    "TraceEntry",
    "capture_run",
    "locate_divergence",
    "sanitize_run",
    "sanitize_sharded",
]

#: One recorded send: (virtual time, src, dst, message type, wire bytes).
TraceEntry = Tuple[float, str, str, str, int]


class MessageTap:
    """Record every message a :class:`~repro.net.network.Network` accepts.

    Wraps ``network.send`` on the *instance*, so attaching never touches
    other deployments. Recording happens before drop checks — a dropped
    message is still protocol behaviour worth comparing.
    """

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []
        self._network: Any = None
        self._original: Optional[Callable[..., None]] = None

    def attach(self, network: Any) -> "MessageTap":
        if self._network is not None:
            raise RuntimeError("MessageTap is already attached")
        self._network = network
        self._original = network.send
        entries = self.entries
        original = network.send
        sim = network.sim

        def recording_send(src: Any, dst: Any, msg: Any) -> None:
            entries.append(
                (sim.now, str(src), str(dst), msg.type_name, msg.size_bytes())
            )
            original(src, dst, msg)

        network.send = recording_send
        return self

    def detach(self) -> None:
        if self._network is not None:
            self._network.send = self._original
            self._network = None
            self._original = None


@dataclasses.dataclass(frozen=True)
class Divergence:
    """First point where two same-seed traces disagree."""

    index: int
    left: Optional[TraceEntry]
    right: Optional[TraceEntry]
    context_left: Tuple[TraceEntry, ...]
    context_right: Tuple[TraceEntry, ...]

    def format(self) -> str:
        def fmt(entry: Optional[TraceEntry]) -> str:
            if entry is None:
                return "<trace ended>"
            t, src, dst, type_name, size = entry
            return f"t={t:.9f} {src} -> {dst} [{type_name}] {size}B"

        lines = [
            f"first divergent event at trace index {self.index}:",
            f"  run 1: {fmt(self.left)}",
            f"  run 2: {fmt(self.right)}",
            "  shared prefix tail:",
        ]
        lines.extend(f"    {fmt(entry)}" for entry in self.context_left)
        return "\n".join(lines)


def locate_divergence(
    left: Sequence[TraceEntry],
    right: Sequence[TraceEntry],
    context: int = 3,
) -> Optional[Divergence]:
    """Locate the first index where two traces disagree (None if equal).

    The scan short-circuits at the first mismatch, so the cost is the
    length of the shared prefix — the trace-level analogue of bisecting
    a failing run down to its first bad event.
    """
    limit = min(len(left), len(right))
    for index in range(limit):
        if left[index] != right[index]:
            lo = max(0, index - context)
            return Divergence(
                index=index,
                left=left[index],
                right=right[index],
                context_left=tuple(left[lo:index]),
                context_right=tuple(right[lo:index]),
            )
    if len(left) != len(right):
        index = limit
        lo = max(0, index - context)
        return Divergence(
            index=index,
            left=left[index] if index < len(left) else None,
            right=right[index] if index < len(right) else None,
            context_left=tuple(left[lo:index]),
            context_right=tuple(right[lo:index]),
        )
    return None


@dataclasses.dataclass
class RunCapture:
    """One traced experiment run."""

    trace: List[TraceEntry]
    events_processed: int
    ops_completed: int
    throughput: float
    invariant_report: Optional[Any] = None


def capture_run(
    protocol: str = "chainreaction",
    *,
    seed: int = 42,
    workload_name: str = "B",
    clients: int = 4,
    duration: float = 0.4,
    warmup: float = 0.1,
    sites: Tuple[str, ...] = ("dc0",),
    servers_per_site: int = 4,
    chain_length: int = 3,
    records: int = 25,
    check_invariants: bool = False,
    overrides: Optional[Dict[str, object]] = None,
    mutate_store: Optional[Callable[[Any], None]] = None,
) -> RunCapture:
    """Build a deployment, run one workload, and return its trace.

    ``overrides`` passes protocol config fields through to the store
    (e.g. the batching knobs for ``repro sanitize --stability notices+batch``).
    ``mutate_store`` is a test hook invoked on the freshly built store
    before the run starts — used to inject deliberate nondeterminism and
    verify the detector localizes it.
    """
    store = build_store(
        protocol,
        sites=sites,
        servers_per_site=servers_per_site,
        chain_length=chain_length,
        seed=seed,
        overrides=overrides,
    )
    monitor = None
    if check_invariants:
        from repro.analysis.invariants import ChainInvariantMonitor

        monitor = ChainInvariantMonitor(store).attach()
    if mutate_store is not None:
        mutate_store(store)
    tap = MessageTap().attach(store.network)
    spec = workload(workload_name, record_count=records)
    result = WorkloadRunner(
        store, spec, n_clients=clients, duration=duration, warmup=warmup,
        record_history=False,
    ).run()
    tap.detach()
    return RunCapture(
        trace=tap.entries,
        events_processed=store.sim.events_processed,
        ops_completed=result.ops_completed,
        throughput=result.throughput,
        invariant_report=monitor.report() if monitor is not None else None,
    )


@dataclasses.dataclass
class SanitizeReport:
    """Outcome of the twice-run determinism check."""

    protocol: str
    seed: int
    trace_length: int
    divergence: Optional[Divergence]
    events_processed: Tuple[int, int]
    invariant_report: Optional[Any] = None

    @property
    def clean(self) -> bool:
        ok = self.divergence is None and (
            self.events_processed[0] == self.events_processed[1]
        )
        if self.invariant_report is not None:
            ok = ok and not self.invariant_report.violations
        return ok

    def format(self) -> str:
        lines = [
            f"sanitize: protocol={self.protocol} seed={self.seed} "
            f"trace={self.trace_length} messages "
            f"events={self.events_processed[0]}/{self.events_processed[1]}",
        ]
        if self.divergence is None:
            lines.append("twice-run: no divergence (traces bit-identical)")
        else:
            lines.append(self.divergence.format())
        if self.invariant_report is not None:
            lines.append(self.invariant_report.format())
        return "\n".join(lines)


def sanitize_run(
    protocol: str = "chainreaction",
    *,
    seed: int = 42,
    workload_name: str = "B",
    clients: int = 4,
    duration: float = 0.4,
    warmup: float = 0.1,
    sites: Tuple[str, ...] = ("dc0",),
    servers_per_site: int = 4,
    chain_length: int = 3,
    records: int = 25,
    check_invariants: bool = False,
    overrides: Optional[Dict[str, object]] = None,
    run_kwargs: Optional[Dict[str, Any]] = None,
) -> SanitizeReport:
    """Run the experiment twice under one seed and diff the traces.

    ``run_kwargs`` (a mapping of :func:`capture_run` keyword overrides
    applied to the *second* run only) exists for tests that deliberately
    perturb one run and assert the divergence is localized.
    """
    base: Dict[str, Any] = dict(
        seed=seed,
        workload_name=workload_name,
        clients=clients,
        duration=duration,
        warmup=warmup,
        sites=sites,
        servers_per_site=servers_per_site,
        chain_length=chain_length,
        records=records,
        overrides=overrides,
    )
    first = capture_run(protocol, check_invariants=check_invariants, **base)
    second_kwargs = dict(base)
    second_kwargs.update(run_kwargs or {})
    second = capture_run(protocol, **second_kwargs)
    return SanitizeReport(
        protocol=protocol,
        seed=seed,
        trace_length=len(first.trace),
        divergence=locate_divergence(first.trace, second.trace),
        events_processed=(first.events_processed, second.events_processed),
        invariant_report=first.invariant_report,
    )


# ----------------------------------------------------------------------
# sharded-engine sanitizer (``repro sanitize --workers N``)
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ShardedSanitizeReport:
    """Outcome of the sharded-engine determinism check.

    Three digests are compared: two runs on ``workers`` processes (the
    twice-run check — a mismatch means nondeterminism *inside* a run)
    and one serial reference run on a single process (a mismatch there
    means the conservative engine's behaviour depends on the worker
    count, which :mod:`repro.sim.shard` promises it never does). The
    digest is the per-site sha256 over every ``Network.send``, so
    matching digests mean the full message traces matched.
    """

    protocol: str
    seed: int
    workers: int
    sites: Tuple[str, ...]
    rounds: int
    digests: Tuple[str, str]
    serial_digest: Optional[str]
    events_processed: Tuple[int, int]
    ops_completed: Tuple[int, int]

    @property
    def twice_run_clean(self) -> bool:
        return (
            self.digests[0] == self.digests[1]
            and self.events_processed[0] == self.events_processed[1]
        )

    @property
    def worker_count_clean(self) -> bool:
        return self.serial_digest is None or self.serial_digest == self.digests[0]

    @property
    def clean(self) -> bool:
        return self.twice_run_clean and self.worker_count_clean

    def format(self) -> str:
        lines = [
            f"sanitize[sharded]: protocol={self.protocol} seed={self.seed} "
            f"workers={self.workers} sites={len(self.sites)} "
            f"rounds={self.rounds} "
            f"events={self.events_processed[0]}/{self.events_processed[1]}",
        ]
        if self.twice_run_clean:
            lines.append(
                f"twice-run: no divergence (digest {self.digests[0][:16]}...)"
            )
        else:
            lines.append(
                "twice-run: DIVERGED — "
                f"digest {self.digests[0][:16]}... vs {self.digests[1][:16]}..."
            )
        if self.serial_digest is None:
            lines.append("worker-count: not checked")
        elif self.worker_count_clean:
            lines.append(
                f"worker-count: workers={self.workers} matches workers=1"
            )
        else:
            lines.append(
                "worker-count: DIVERGED — "
                f"workers=1 digest {self.serial_digest[:16]}... vs "
                f"workers={self.workers} digest {self.digests[0][:16]}..."
            )
        return "\n".join(lines)


def sanitize_sharded(
    protocol: str = "chainreaction",
    *,
    seed: int = 42,
    workload_name: str = "B",
    clients: int = 4,
    duration: float = 0.4,
    warmup: float = 0.1,
    sites: Tuple[str, ...] = ("dc0", "dc1"),
    servers_per_site: int = 4,
    chain_length: int = 3,
    records: int = 25,
    workers: int = 2,
    compare_serial: bool = True,
    overrides: Optional[Dict[str, object]] = None,
) -> ShardedSanitizeReport:
    """Twice-run the multi-process sharded engine and diff trace digests.

    The single-process sanitizer (:func:`sanitize_run`) cannot see
    nondeterminism that only exists on the multi-core path — pickling
    envelopes over worker pipes, per-process module state, round
    scheduling. This variant runs the :class:`repro.sim.shard`
    ``ShardedSimulator`` twice on ``workers`` processes and, when
    ``compare_serial`` is set, once more inline (workers=1) to check the
    engine's worker-count-invariance promise.
    """
    from repro.sim.shard import ExperimentSpec, ShardedSimulator

    spec = ExperimentSpec(
        workload=workload(workload_name, record_count=records),
        protocol=protocol,
        sites=tuple(sites),
        servers_per_site=servers_per_site,
        chain_length=chain_length,
        seed=seed,
        n_clients=clients,
        duration=duration,
        warmup=warmup,
        drain=0.5,
        overrides=tuple(sorted((overrides or {}).items())),
    )
    first = ShardedSimulator(spec, workers=workers).run()
    second = ShardedSimulator(spec, workers=workers).run()
    serial = (
        ShardedSimulator(spec, workers=1).run() if compare_serial else None
    )
    return ShardedSanitizeReport(
        protocol=protocol,
        seed=seed,
        workers=first.workers,
        sites=spec.sites,
        rounds=first.rounds,
        digests=(first.trace_digest, second.trace_digest),
        serial_digest=serial.trace_digest if serial is not None else None,
        events_processed=(first.events_processed, second.events_processed),
        ops_completed=(first.ops_completed, second.ops_completed),
    )
