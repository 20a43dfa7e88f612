"""Parallel scale tier: one sharded experiment vs worker count.

``perf --scale --workers N...`` runs the **same** million-key,
thousand-client experiment once per requested worker count through
:class:`repro.sim.shard.ShardedSimulator` and reports, per count:

- **wall seconds** and **ops/wall-s** — the host-side figures of merit;
- **trace digest** — sha256 over every shard's ``Network.send`` trace;
  all counts must produce the *same* digest (the engine's determinism
  contract), which the report records as ``digests_match``;
- **rounds / envelopes** — conservative-window bookkeeping, i.e. how
  often the shards synchronised and how much crossed the boundary.

Speedup is reported against the ``workers=1`` arm of the same sharded
engine (identical simulation, same pipes-free coordinator loop), so the
ratio isolates what the extra processes buy. ``host_cpus`` is recorded
alongside: on a single-core host the extra workers cannot buy anything
and the expected ratio is ~1.0x — the report states the machine it
measured rather than extrapolating.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence

from repro.sim.shard import ExperimentSpec, ShardedSimulator, experiment_lookahead
from repro.workload.ycsb import WorkloadSpec

__all__ = [
    "PARALLEL_SCALE_PROFILE",
    "PARALLEL_SMOKE_OVERRIDES",
    "MIN_SPEEDUP_BY_WORKERS",
    "bench_parallel_scale",
    "resolve_profile",
    "spec_from_profile",
]

#: The north-star tier: 4 DCs × 4 servers (R=3, k=2), 10⁶ preloaded
#: keys, 10³ closed-loop clients. The update-lean mix keeps per-op
#: cost low enough that the tier finishes in CI minutes; the short
#: measured window is intentional — the tier exists to size *hosts*
#: (ops/wall-s), not to re-measure protocol behaviour.
PARALLEL_SCALE_PROFILE: Dict[str, Any] = {
    "protocol": "chainreaction",
    "sites": ("dc0", "dc1", "dc2", "dc3"),
    "servers_per_site": 4,
    "chain_length": 3,
    "ack_k": 2,
    "seed": 1234,
    "record_count": 1_000_000,
    "n_clients": 1000,
    "value_size": 64,
    "read_proportion": 0.70,
    "update_proportion": 0.30,
    "insert_proportion": 0.0,
    "distribution": "scrambled",
    "duration": 0.25,
    "warmup": 0.05,
    "drain": 0.25,
}

#: Shrunk tier — same shape, CI seconds — shared by the smoke gate
#: (``scripts/perf_smoke.py``) and ``benchmarks/bench_pr6_parallel.py``.
PARALLEL_SMOKE_OVERRIDES: Dict[str, Any] = {
    "record_count": 2_000,
    "n_clients": 32,
    "duration": 0.2,
    "warmup": 0.05,
    "drain": 0.2,
}

#: Speedup floors vs the ``workers=1`` arm, keyed by worker count;
#: enforced only on hosts that schedule at least that many CPUs.
MIN_SPEEDUP_BY_WORKERS: Dict[int, float] = {2: 1.25, 4: 1.5}


def resolve_profile(
    base: Dict[str, Any], overrides: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """A copy of ``base`` with ``overrides`` applied, unknown keys rejected.

    CI smoke gates shrink the default profile this way, and a typo'd key
    must fail loudly rather than silently benchmark the full-size tier.
    """
    profile = dict(base)
    for key, value in (overrides or {}).items():
        if key not in profile:
            raise KeyError(
                f"unknown profile key {key!r}; valid keys: {sorted(profile)}"
            )
        profile[key] = value
    return profile


def spec_from_profile(profile: Dict[str, Any]) -> ExperimentSpec:
    """Translate a profile dict into the engine's picklable spec."""
    workload = WorkloadSpec(
        "parallel-scale",
        read_proportion=profile["read_proportion"],
        update_proportion=profile["update_proportion"],
        insert_proportion=profile["insert_proportion"],
        record_count=profile["record_count"],
        distribution=profile["distribution"],
        value_size=profile["value_size"],
    )
    return ExperimentSpec(
        workload=workload,
        protocol=profile["protocol"],
        sites=tuple(profile["sites"]),
        servers_per_site=profile["servers_per_site"],
        chain_length=profile["chain_length"],
        ack_k=profile["ack_k"],
        seed=profile["seed"],
        n_clients=profile["n_clients"],
        duration=profile["duration"],
        warmup=profile["warmup"],
        drain=profile["drain"],
        record_history=False,
        reservoir_capacity=2_000,
    )


def bench_parallel_scale(
    workers_list: Sequence[int] = (1, 2, 4),
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the sharded scale tier at each worker count; see module docstring.

    The first entry of ``workers_list`` is the speedup/digest baseline
    (conventionally 1). Returns the report dict written to
    ``BENCH_PR6.json``.
    """
    if not workers_list:
        raise ValueError("need at least one worker count")
    profile = resolve_profile(PARALLEL_SCALE_PROFILE, overrides)
    spec = spec_from_profile(profile)

    runs = []
    for workers in workers_list:
        engine = ShardedSimulator(spec, workers=workers)
        t0 = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - t0
        runs.append(
            {
                "workers_requested": workers,
                "workers_used": engine.workers,
                "wall_seconds": wall,
                "ops_completed": result.ops_completed,
                "ops_per_wall_sec": result.ops_completed / wall if wall else 0.0,
                "sim_throughput_ops_s": result.throughput,
                "events_processed": result.events_processed,
                "rounds": result.rounds,
                "envelopes_exchanged": result.envelopes_exchanged,
                "messages_sent": result.stats.messages_sent,
                "errors": result.errors,
                "trace_digest": result.trace_digest,
            }
        )

    base = runs[0]
    digests = {run["trace_digest"] for run in runs}
    for run in runs:
        run["speedup_vs_first"] = (
            run["ops_per_wall_sec"] / base["ops_per_wall_sec"]
            if base["ops_per_wall_sec"]
            else 0.0
        )
    return {
        "profile": {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in profile.items()
        },
        "host_cpus": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "lookahead_s": experiment_lookahead(spec),
        "shards": len(spec.sites),
        "runs": runs,
        "digests_match": len(digests) == 1,
        "trace_digest": base["trace_digest"],
    }
