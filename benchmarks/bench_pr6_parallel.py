"""PR6 — Conservative-lookahead sharded simulation engine.

One logical experiment (the ``perf --scale --workers`` tier: 4 DCs,
R=3, k=2, 10⁶ preloaded keys, 10³ closed-loop clients) runs once per
worker count through :class:`repro.sim.shard.ShardedSimulator`. Two
claims are measured:

1. **Determinism** — every worker count must produce the *same*
   ``Network.send`` trace digest. This is the hard acceptance gate: a
   mismatch means the conservative windows leaked an ordering
   difference, and the report fails regardless of speed.
2. **Throughput vs workers** — ops per wall second per worker count,
   with speedup measured against the ``workers=1`` arm of the same
   engine. The speedup floor is **core-aware**: 4 workers are expected
   to deliver ≥ 1.5x only when the host actually schedules ≥ 4 CPUs
   (and 2 workers ≥ 1.25x on ≥ 2 CPUs). On fewer cores the extra
   processes cannot buy wall time — the report records the honest
   ratio alongside ``host_cpus`` instead of failing the run, because a
   digest-identical 1.0x on one core is the engine working as designed,
   not a regression.

Run as a script to (re)generate ``BENCH_PR6.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_pr6_parallel.py

or as part of the benchmark suite (shrunk tier)::

    pytest benchmarks/bench_pr6_parallel.py -s
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.perf.parallel import (
    MIN_SPEEDUP_BY_WORKERS,
    PARALLEL_SMOKE_OVERRIDES,
    bench_parallel_scale,
)

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"


def _effective_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def collect(
    workers_list: Sequence[int] = (1, 2, 4),
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    report = bench_parallel_scale(workers_list=workers_list, overrides=overrides)
    report["python"] = platform.python_version()

    cpus = _effective_cpus()
    speedups = {
        run["workers_requested"]: run["speedup_vs_first"] for run in report["runs"]
    }
    gates = []
    for workers, floor in MIN_SPEEDUP_BY_WORKERS.items():
        if workers not in speedups:
            continue
        gates.append(
            {
                "workers": workers,
                "speedup": speedups[workers],
                "floor": floor,
                # On a host with fewer cores than workers the floor is
                # physically unattainable; the gate records rather than
                # enforces, and ``host_cpus`` explains why.
                "enforced": cpus >= workers,
                "passed": (cpus < workers) or speedups[workers] >= floor,
            }
        )
    report["acceptance"] = {
        "digests_match": report["digests_match"],
        "effective_cpus": cpus,
        "speedup_gates": gates,
        "passed": bool(
            report["digests_match"] and all(g["passed"] for g in gates)
        ),
    }
    return report


def _print_summary(report: Dict[str, Any]) -> None:
    acc = report["acceptance"]
    print(
        f"  tier: {report['shards']} shards, "
        f"{report['profile']['record_count']:,} keys, "
        f"{report['profile']['n_clients']:,} clients; "
        f"lookahead {report['lookahead_s'] * 1000:.1f} ms; "
        f"{acc['effective_cpus']} cpu(s)"
    )
    for run in report["runs"]:
        print(
            f"  workers={run['workers_requested']}: "
            f"{run['wall_seconds']:7.1f}s wall, "
            f"{run['ops_per_wall_sec']:8.1f} ops/wall-s "
            f"({run['speedup_vs_first']:.2f}x), "
            f"{run['rounds']} rounds, "
            f"{run['envelopes_exchanged']:,} envelopes"
        )
    print(f"  trace digests match: {report['digests_match']}")
    for gate in acc["speedup_gates"]:
        state = "enforced" if gate["enforced"] else "recorded only (too few cpus)"
        print(
            f"  speedup gate {gate['workers']}w >= {gate['floor']}x: "
            f"{gate['speedup']:.2f}x — {state}"
        )


def test_pr6_parallel(scale):
    from bench_utils import run_once

    report = run_once(
        lambda: collect(workers_list=(1, 2), overrides=PARALLEL_SMOKE_OVERRIDES),
    )
    print()
    _print_summary(report)
    # Determinism is unconditional; speed floors apply per core count.
    assert report["digests_match"], report["runs"]
    assert report["acceptance"]["passed"], report["acceptance"]


def main() -> int:
    print("running the PR6 parallel scale tier (workers 1, 2, 4) ...")
    report = collect()
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print_summary(report)
    print(f"acceptance passed: {report['acceptance']['passed']}")
    print(f"report written to {REPORT_PATH}")
    return 0 if report["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
