"""The fault-campaign engine.

Runs a :class:`~repro.faults.campaign.CampaignSpec` end to end:

1. build the deployment (seeded) and attach the chain-invariant
   monitors (prefix property, stability monotonicity, causal cut);
2. resolve the campaign's fault selectors against the built cluster
   into :class:`~repro.cluster.failure.FaultEvent` s and schedule them
   through :func:`~repro.cluster.failure.apply_fault`, the one fault
   path the sharded engine shares;
3. drive the YCSB workload through the fault window with an accounting
   driver that resolves **every** operation to exactly one outcome —
   ``ok``, ``degraded`` (read served from a possibly-stale replica,
   flagged, excluded from the causal history), or ``timeout`` (retry
   budget exhausted) — and counts the retries behind the successes;
4. audit: causal checker over the recorded history, invariant report,
   and per-phase throughput/latency (before / during / after the fault
   window), the E9 availability story in numbers.

:func:`sanitize_campaign` reruns the whole campaign twice under one
seed and diffs the message traces with the PR 2 sanitizer — fault
injection must not cost determinism.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis.invariants import ChainInvariantMonitor
from repro.analysis.sanitize import MessageTap, SanitizeReport, locate_divergence
from repro.baselines.registry import build_store
from repro.checker import check_causal
from repro.checker.history import GET
from repro.cluster.failure import FaultEvent, schedule_faults
from repro.errors import ReproError
from repro.faults.campaign import CampaignSpec, FaultSpec, resolve_server
from repro.workload import WorkloadRunner, workload
from repro.workload.driver import SessionDriver

__all__ = [
    "CampaignResult",
    "FaultSessionDriver",
    "OutcomeCounts",
    "PhaseStats",
    "run_campaign",
    "sanitize_campaign",
]

#: One resolved operation: (t_invoke, t_return, op, outcome) where
#: outcome is "ok" | "degraded" | "timeout".
OpRecord = Tuple[float, float, str, str]


@dataclasses.dataclass
class OutcomeCounts:
    """Where every operation of a campaign ended up."""

    ok: int = 0
    degraded: int = 0
    timeouts: int = 0
    #: operations that succeeded only after at least one retry
    retried_ops: int = 0
    #: total retry attempts across all sessions
    retries: int = 0
    #: operations still unresolved when the run drained (should be 0)
    unresolved: int = 0

    @property
    def total(self) -> int:
        return self.ok + self.degraded + self.timeouts

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class PhaseStats:
    """Throughput and latency over one phase of the fault window."""

    phase: str
    start: float
    end: float
    ops: int
    ops_per_sec: float
    get_p50_ms: float
    get_p99_ms: float
    timeouts: int
    degraded: int

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class FaultSessionDriver(SessionDriver):
    """Closed-loop driver with per-operation outcome accounting.

    Degraded reads are recorded for latency but **excluded from the
    causal history**: a degraded read deliberately relaxes the causal
    guarantee (that is its contract), so auditing it as a normal read
    would report the relaxation as a violation.
    """

    def __init__(
        self, *args: Any, oplog: List[OpRecord], counts: OutcomeCounts, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.oplog = oplog
        self.counts = counts
        self.issued = 0

    def _loop(self, sim: Any) -> Iterator[Any]:
        while sim.now < self.stop_at:
            op, key = self._next_request()
            t_invoke = sim.now
            self.issued += 1
            retries_before = self.session.retries
            try:
                if op == GET:
                    outcome = yield self.session.get(key)
                else:
                    outcome = yield self.session.put(key, self._payload())
            except ReproError as exc:
                self.oplog.append((t_invoke, sim.now, op, "timeout"))
                self._op_failed(op, key, exc, measured=sim.now >= self.measure_from)
                continue
            t_return = sim.now
            degraded = bool(getattr(outcome, "degraded", False))
            self.oplog.append((t_invoke, t_return, op, "degraded" if degraded else "ok"))
            if self.session.retries > retries_before:
                self.counts.retried_ops += 1
            if t_return < self.measure_from:
                continue  # warm-up
            if degraded:
                saved = self.record_history
                self.record_history = False
                try:
                    self._record(op, key, outcome, t_invoke, t_return)
                finally:
                    self.record_history = saved
            else:
                self._record(op, key, outcome, t_invoke, t_return)
        return self._op_seq


@dataclasses.dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    seed: int
    outcomes: OutcomeCounts
    phases: List[PhaseStats]
    causal_violations: int
    invariant_report: Optional[Any]
    injector_log: List[str]
    throughput: float
    ops_completed: int
    trace: Optional[List[Any]] = None
    events_processed: int = 0
    store: Optional[Any] = None

    @property
    def clean(self) -> bool:
        """Zero invariant violations, zero causal violations, and every
        operation resolved to ok / degraded / timeout."""
        ok = self.causal_violations == 0 and self.outcomes.unresolved == 0
        if self.invariant_report is not None:
            ok = ok and not self.invariant_report.violations
        return ok

    def to_report(self) -> Dict[str, Any]:
        """JSON-serialisable summary (the BENCH_PR3 payload)."""
        report: Dict[str, Any] = {
            "campaign": self.spec.name,
            "description": self.spec.description,
            "protocol": self.spec.protocol,
            "sites": list(self.spec.sites),
            "seed": self.seed,
            "clients": self.spec.clients,
            "workload": self.spec.workload_name,
            "fault_window": list(self.spec.fault_window()),
            "throughput_ops_s": self.throughput,
            "ops_completed": self.ops_completed,
            "outcomes": self.outcomes.as_dict(),
            "phases": [p.as_dict() for p in self.phases],
            "causal_violations": self.causal_violations,
            "injector_log": list(self.injector_log),
            "clean": self.clean,
        }
        if self.invariant_report is not None:
            report["invariants"] = {
                "violations": len(self.invariant_report.violations),
                "applies_checked": self.invariant_report.applies_checked,
                "stability_checks": self.invariant_report.stability_checks,
                "gets_checked": self.invariant_report.gets_checked,
            }
        return report

    def format(self) -> str:
        window = self.spec.fault_window()
        lines = [
            f"campaign {self.spec.name!r} ({self.spec.protocol}, seed {self.seed}): "
            f"{self.outcomes.total} ops, fault window "
            f"[{window[0]:.2f}s, {window[1]:.2f}s]",
            f"  outcomes : ok={self.outcomes.ok} degraded={self.outcomes.degraded} "
            f"timeout={self.outcomes.timeouts} "
            f"(retried {self.outcomes.retried_ops} ops, "
            f"{self.outcomes.retries} retries, "
            f"{self.outcomes.unresolved} unresolved)",
        ]
        for p in self.phases:
            lines.append(
                f"  {p.phase:<7}: {p.ops_per_sec:>9.0f} ops/s  "
                f"get p50/p99 {p.get_p50_ms:.2f}/{p.get_p99_ms:.2f} ms  "
                f"timeouts={p.timeouts} degraded={p.degraded}"
            )
        lines.append(f"  causal   : {self.causal_violations} violation(s)")
        if self.invariant_report is not None:
            lines.append("  " + self.invariant_report.format().replace("\n", "\n  "))
        for entry in self.injector_log:
            lines.append(f"  inject   : {entry}")
        lines.append(f"  verdict  : {'CLEAN' if self.clean else 'VIOLATIONS FOUND'}")
        return "\n".join(lines)


#: a FaultSpec kind -> its (start, end) FaultEvent actions
_ACTIONS = {
    "crash": ("crash", "recover"),
    "partition": ("partition", "heal"),
    "slow-link": ("slow", "restore"),
}


def _fault_events(store: Any, faults: Tuple[FaultSpec, ...]) -> List[FaultEvent]:
    """Resolve each spec's selector against the built ``store`` into its
    start event and, when ``until`` is set, its end event — in that
    order, spec by spec, which fixes their heap sequence numbers."""
    events: List[FaultEvent] = []
    for spec in faults:
        start, end = _ACTIONS[spec.kind]
        if spec.kind == "crash":
            a, b = str(resolve_server(store, spec.target).address), ""
        else:
            a, b = spec.target.split("~" if spec.kind == "slow-link" else "|", 1)
        events.append(FaultEvent(spec.at, start, a, b, spec.factor, spec.wipe_storage))
        if spec.until is not None:
            events.append(FaultEvent(spec.until, end, a, b))
    return events


def _percentile(sorted_values: List[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(pct / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[index]


def _phase_stats(
    oplog: List[OpRecord], spec: CampaignSpec
) -> List[PhaseStats]:
    window_start, window_end = spec.fault_window()
    stop = spec.warmup + spec.duration
    bounds = [
        ("before", spec.warmup, window_start),
        ("during", window_start, window_end),
        ("after", window_end, stop + spec.drain),
    ]
    phases = []
    for name, start, end in bounds:
        if end <= start:
            continue
        in_phase = [rec for rec in oplog if start <= rec[1] < end]
        get_latencies = sorted(
            rec[1] - rec[0] for rec in in_phase if rec[2] == GET and rec[3] != "timeout"
        )
        # Throughput over the phase's nominal span, capped at the workload
        # stop: ops completing in the drain would otherwise dilute it.
        span = min(end, stop) - min(start, stop)
        completed = sum(1 for rec in in_phase if rec[3] != "timeout")
        phases.append(
            PhaseStats(
                phase=name,
                start=start,
                end=end,
                ops=len(in_phase),
                ops_per_sec=completed / span if span > 0 else 0.0,
                get_p50_ms=_percentile(get_latencies, 50) * 1000,
                get_p99_ms=_percentile(get_latencies, 99) * 1000,
                timeouts=sum(1 for rec in in_phase if rec[3] == "timeout"),
                degraded=sum(1 for rec in in_phase if rec[3] == "degraded"),
            )
        )
    return phases


#: campaign runs bound each operation's total time budget so the drain
#: window suffices for every in-flight op to resolve (overridable)
_DEFAULT_OVERRIDES: Dict[str, object] = {"op_deadline": 1.0}


def run_campaign(
    spec: CampaignSpec,
    seed: int = 42,
    *,
    capture_trace: bool = False,
    check_invariants: bool = True,
) -> CampaignResult:
    """Run one campaign; returns the accounted, audited result."""
    overrides = dict(_DEFAULT_OVERRIDES)
    overrides.update(spec.overrides or {})
    store = build_store(
        spec.protocol,
        sites=spec.sites,
        servers_per_site=spec.servers_per_site,
        chain_length=spec.chain_length,
        ack_k=spec.ack_k,
        seed=seed,
        overrides=overrides,
    )
    monitor = None
    if check_invariants and spec.protocol in ("chainreaction", "chain"):
        monitor = ChainInvariantMonitor(store).attach()
    tap = MessageTap().attach(store.network) if capture_trace else None

    injector_log = schedule_faults(store, _fault_events(store, spec.events))

    oplog: List[OpRecord] = []
    counts = OutcomeCounts()
    spec_wl = workload(spec.workload_name, record_count=spec.records)

    def make_driver(**kwargs: Any) -> FaultSessionDriver:
        return FaultSessionDriver(oplog=oplog, counts=counts, **kwargs)

    runner = WorkloadRunner(
        store,
        spec_wl,
        n_clients=spec.clients,
        duration=spec.duration,
        warmup=spec.warmup,
        drain=spec.drain,
        record_history=True,
        driver_factory=make_driver,
    )
    result = runner.run()
    if tap is not None:
        tap.detach()

    for t_invoke, t_return, op, kind in oplog:
        if kind == "ok":
            counts.ok += 1
        elif kind == "degraded":
            counts.degraded += 1
        else:
            counts.timeouts += 1
    counts.retries = sum(d.session.retries for d in runner.drivers)
    counts.unresolved = sum(d.issued for d in runner.drivers) - len(oplog)

    return CampaignResult(
        spec=spec,
        seed=seed,
        outcomes=counts,
        phases=_phase_stats(oplog, spec),
        causal_violations=len(check_causal(result.history)),
        invariant_report=monitor.report() if monitor is not None else None,
        injector_log=injector_log,
        throughput=result.throughput,
        ops_completed=result.ops_completed,
        trace=tap.entries if tap is not None else None,
        events_processed=store.sim.events_processed,
        store=store,
    )


def sanitize_campaign(spec: CampaignSpec, seed: int = 42) -> SanitizeReport:
    """Determinism check: run the campaign twice under one seed and diff
    the message traces (fault injection included)."""
    first = run_campaign(spec, seed, capture_trace=True)
    second = run_campaign(spec, seed, capture_trace=True)
    assert first.trace is not None and second.trace is not None
    return SanitizeReport(
        protocol=f"{spec.protocol} campaign:{spec.name}",
        seed=seed,
        trace_length=len(first.trace),
        divergence=locate_divergence(first.trace, second.trace),
        events_processed=(first.events_processed, second.events_processed),
        invariant_report=first.invariant_report,
    )
