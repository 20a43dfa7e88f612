"""Experiment orchestration for the E1–E10 benchmarks.

Thin composition layer: build a deployment from the protocol registry,
drive it with a YCSB workload (or the causality probe), and return the
rows the paper's corresponding figure/table plots. Each benchmark file
under ``benchmarks/`` calls one of these functions and asserts the
figure's *shape* (who wins, by roughly what factor).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.registry import build_store
from repro.bench.configs import BenchScale
from repro.checker.causal import check_causal
from repro.checker.sessions import check_session_guarantees
from repro.workload.driver import RunResult, WorkloadRunner
from repro.workload.probes import ProbeConfig, run_causality_probe
from repro.workload.ycsb import workload

__all__ = [
    "run_ycsb",
    "throughput_sweep",
    "latency_run",
    "consistency_table",
]


def run_ycsb(
    protocol: str,
    workload_name: str,
    n_clients: int,
    scale: BenchScale,
    sites: Tuple[str, ...] = ("dc0",),
    servers_per_site: Optional[int] = None,
    ack_k: Optional[int] = None,
    record_history: bool = False,
    overrides: Optional[Dict[str, object]] = None,
    distribution: Optional[str] = None,
) -> RunResult:
    """One (protocol, workload, client count) point."""
    store = build_store(
        protocol,
        sites=sites,
        servers_per_site=servers_per_site or scale.servers_per_site,
        chain_length=scale.chain_length,
        ack_k=ack_k if ack_k is not None else scale.ack_k,
        seed=scale.seed,
        overrides=overrides,
    )
    changes: Dict[str, object] = {
        "record_count": scale.record_count,
        "value_size": scale.value_size,
    }
    if distribution is not None:
        changes["distribution"] = distribution
    spec = workload(workload_name, **changes)
    runner = WorkloadRunner(
        store,
        spec,
        n_clients=n_clients,
        duration=scale.duration,
        warmup=scale.warmup,
        record_history=record_history,
    )
    return runner.run()


def throughput_sweep(
    protocols: Sequence[str],
    workload_name: str,
    scale: BenchScale,
    sites: Tuple[str, ...] = ("dc0",),
    client_counts: Optional[Sequence[int]] = None,
) -> List[Dict[str, object]]:
    """The paper's throughput-vs-clients figures: one row per point."""
    return [
        run_ycsb(protocol, workload_name, n_clients, scale, sites=tuple(sites)).summary_row()
        for protocol in protocols
        for n_clients in (client_counts or scale.client_counts)
    ]


def latency_run(
    protocols: Sequence[str],
    workload_name: str,
    scale: BenchScale,
    sites: Tuple[str, ...] = ("dc0",),
) -> Dict[str, RunResult]:
    """Steady-state run per protocol for latency-distribution figures.

    Each result's live deployment is dropped (``result.store = None``),
    so the runs do not hold every protocol's actors at once.
    """
    results = {}
    for protocol in protocols:
        result = run_ycsb(protocol, workload_name, scale.latency_clients, scale, sites=tuple(sites))
        result.store = None
        results[protocol] = result
    return results


def _consistency_row(protocol: str, scale: BenchScale, sites: Tuple[str, ...]) -> Dict[str, object]:
    """One consistency-table protocol → its anomaly row."""
    store = build_store(
        protocol,
        sites=sites,
        servers_per_site=scale.servers_per_site,
        chain_length=scale.chain_length,
        ack_k=scale.ack_k,
        seed=scale.seed,
        write_quorum=1,
        read_quorum=1,
    )
    history = run_causality_probe(
        store,
        ProbeConfig(n_pairs=scale.probe_pairs, rounds=scale.probe_rounds),
    )
    causal = check_causal(history)
    sessions = check_session_guarantees(history)
    return {
        "protocol": protocol,
        "operations": len(history),
        "causal": len(causal),
        "read_your_writes": len(sessions["read-your-writes"]),
        "monotonic_reads": len(sessions["monotonic-reads"]),
        "monotonic_writes": len(sessions["monotonic-writes"]),
        "writes_follow_reads": len(sessions["writes-follow-reads"]),
    }


def consistency_table(
    protocols: Sequence[str],
    scale: BenchScale,
    sites: Tuple[str, ...] = ("dc0", "dc1"),
) -> List[Dict[str, object]]:
    """The E10 anomaly table: violations per protocol under the probe.

    The quorum deployment deliberately uses non-overlapping quorums
    (R=W=1) so that its session anomalies are visible, matching the
    eventual-flavoured configurations the paper argues against.
    """
    return [_consistency_row(protocol, scale, tuple(sites)) for protocol in protocols]
