"""PR4 — Chain-plane batching + metadata lifecycle GC.

Two measurements back the PR's claims:

1. **Protocol plane, batched vs unbatched** — the same write-heavy
   geo workload (2 sites, R=3, k=2) on the ``notices`` and the
   ``notices+batch`` plane. Batching must deliver at
   least a 1.3x wall-clock speedup (simulated ops per wall second) and
   at least a 5x reduction in stability-notification message count.
2. **Metadata plateau** — a 10x-length insert-growing run (YCSB D).
   Without GC the servers' live stability metadata grows linearly with
   the keyspace; with GC it must plateau (final size within 2x of the
   early steady level). A key is sealed at the stability event that
   completes it; what stays is one sealed version per key at rest
   (``global_floor_entries``), reclaimed by the key's next write.

Run as a script to (re)generate ``BENCH_PR4.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_pr4_batching.py

or as part of the benchmark suite::

    pytest benchmarks/bench_pr4_batching.py -s
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.baselines.registry import build_store
from repro.perf.protocol import bench_protocol_plane
from repro.workload.driver import WorkloadRunner
from repro.workload.ycsb import workload

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR4.json"
SEED = 1234

#: acceptance floors for the batched arm
MIN_OPS_WALL_SPEEDUP = 1.3
MIN_STABILITY_REDUCTION = 5.0
MAX_PLATEAU_GROWTH = 2.0


def _plateau_arm(plane: str, duration: float, n_clients: int, seed: int) -> Dict[str, Any]:
    """One 10x-length YCSB-D run, sampling live metadata each 0.5s."""
    store = build_store(
        "chainreaction",
        sites=("dc0", "dc1"),
        servers_per_site=4,
        chain_length=3,
        ack_k=2,
        seed=seed,
        overrides={"stability": plane},
    )
    spec = workload("D", record_count=25, value_size=64)
    runner = WorkloadRunner(
        store, spec, n_clients=n_clients, duration=duration, warmup=0.1,
        record_history=False,
    )
    samples: List[Dict[str, Any]] = []

    def sample() -> None:
        metadata = store.protocol_stats()["metadata"]
        samples.append(
            {
                "t": store.sim.now,
                "stable_map_entries": metadata["stable_map_entries"],
                "global_floor_entries": metadata["global_floor_entries"],
                "dep_table_entries": metadata["dep_table_entries"],
            }
        )
        if store.sim.now < duration:
            store.sim.post_at(store.sim.now + 0.5, sample)

    store.sim.post_at(0.5, sample)
    result = runner.run()
    return {
        "plane": plane,
        "ops_completed": result.ops_completed,
        "keys_sealed": store.protocol_stats()["metadata"]["keys_sealed"],
        "samples": samples,
    }


def collect(duration: float = 1.0, n_clients: int = 8, seed: int = SEED) -> dict:
    protocol = bench_protocol_plane(
        duration=duration, n_clients=n_clients, seed=seed
    )
    plateau_unbatched = _plateau_arm("notices", duration * 5, n_clients, seed)
    plateau_gc = _plateau_arm("notices+batch", duration * 5, n_clients, seed)

    def growth(arm: Dict[str, Any]) -> float:
        series = [s["stable_map_entries"] for s in arm["samples"]]
        return series[-1] / series[0] if series and series[0] else 0.0

    report = {
        "python": platform.python_version(),
        "seed": seed,
        "protocol_plane": protocol,
        "plateau": {
            "workload": "D (5% inserts, growing keyspace), 10x base duration",
            "unbatched": plateau_unbatched,
            "gc": plateau_gc,
            "stable_map_growth_unbatched": growth(plateau_unbatched),
            "stable_map_growth_gc": growth(plateau_gc),
        },
        "acceptance": {
            "ops_wall_speedup": protocol["ops_per_wall_sec_speedup"],
            "ops_wall_speedup_floor": MIN_OPS_WALL_SPEEDUP,
            "stability_message_reduction": protocol["stability_message_reduction"],
            "stability_message_reduction_floor": MIN_STABILITY_REDUCTION,
            "stable_map_growth_gc": growth(plateau_gc),
            "stable_map_growth_ceiling": MAX_PLATEAU_GROWTH,
        },
    }
    acc = report["acceptance"]
    acc["passed"] = bool(
        acc["ops_wall_speedup"] >= MIN_OPS_WALL_SPEEDUP
        and acc["stability_message_reduction"] >= MIN_STABILITY_REDUCTION
        and 0.0 < acc["stable_map_growth_gc"] <= MAX_PLATEAU_GROWTH
    )
    return report


def _print_summary(report: dict) -> None:
    proto = report["protocol_plane"]
    acc = report["acceptance"]
    print(
        f"  ops/wall-s: {proto['unbatched']['sim_ops_per_wall_sec']:8.0f} -> "
        f"{proto['batched']['sim_ops_per_wall_sec']:8.0f}  "
        f"({acc['ops_wall_speedup']:.2f}x, floor {MIN_OPS_WALL_SPEEDUP}x)"
    )
    print(
        f"  stability msgs: {proto['unbatched']['stability_messages']:6d} -> "
        f"{proto['batched']['stability_messages']:6d}  "
        f"({acc['stability_message_reduction']:.1f}x reduction, floor {MIN_STABILITY_REDUCTION}x)"
    )
    print(
        f"  global-stability msgs: {proto['unbatched']['global_stability_messages']:6d} -> "
        f"{proto['batched']['global_stability_messages']:6d}  "
        f"({proto['global_stability_message_reduction']:.1f}x reduction)"
    )
    plateau = report["plateau"]
    print(
        f"  stable-map growth over 10x run: "
        f"{plateau['stable_map_growth_unbatched']:.1f}x without GC, "
        f"{plateau['stable_map_growth_gc']:.1f}x with GC "
        f"(ceiling {MAX_PLATEAU_GROWTH}x)"
    )


def test_pr4_batching(scale):
    from bench_utils import run_once

    report = run_once(collect)
    print()
    _print_summary(report)
    acc = report["acceptance"]
    assert acc["ops_wall_speedup"] >= MIN_OPS_WALL_SPEEDUP, acc
    assert acc["stability_message_reduction"] >= MIN_STABILITY_REDUCTION, acc
    assert 0.0 < acc["stable_map_growth_gc"] <= MAX_PLATEAU_GROWTH, acc
    # Batching trades notification latency for message count; the
    # simulated throughput cost must stay moderate.
    assert report["protocol_plane"]["sim_throughput_ratio"] >= 0.9, report[
        "protocol_plane"
    ]


def main() -> int:
    print("running the PR4 protocol-plane benchmark (batched vs unbatched) ...")
    report = collect()
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print_summary(report)
    print(f"acceptance passed: {report['acceptance']['passed']}")
    print(f"report written to {REPORT_PATH}")
    return 0 if report["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
