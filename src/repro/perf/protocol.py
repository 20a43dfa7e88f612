"""Protocol-plane benchmark: batching + metadata GC, on vs off.

This benchmark measures the *protocol* plane: the same
deterministic write-heavy geo workload runs twice — once with the seed
per-notification protocol (``stability="notices"``) and once batched
and sealing (``"notices+batch"``) — and the report compares

- wall-clock rate (simulated ops per wall second: fewer wire messages
  means fewer simulator events per op),
- stability-notification message counts (``chain-stable`` vs
  ``chain-stable`` + ``bulk-stable``, and the global-stability
  equivalents),
- live metadata footprint (server stable-map entries, client dep-table
  bytes) at the end of the run.

Virtual behaviour of each arm is seed-deterministic; only the wall
rates vary by machine. The workload is deliberately write-heavy (90%
updates): batching targets the per-write notification fan-out, which a
read-dominated mix would mask.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.metrics.protocol import (
    GLOBAL_STABILITY_MESSAGE_TYPES,
    SHIPPING_MESSAGE_TYPES,
    STABILITY_MESSAGE_TYPES,
)

__all__ = ["bench_protocol_plane"]


def _run_arm(
    overrides: Optional[Dict[str, object]],
    duration: float,
    n_clients: int,
    record_count: int,
    seed: int,
) -> Dict[str, Any]:
    from repro.baselines.registry import build_store
    from repro.workload.driver import WorkloadRunner
    from repro.workload.ycsb import WorkloadSpec

    store = build_store(
        "chainreaction",
        sites=("dc0", "dc1"),
        servers_per_site=4,
        chain_length=3,
        ack_k=2,
        seed=seed,
        overrides=overrides,
    )
    spec = WorkloadSpec(
        "pr4-write-heavy",
        read_proportion=0.1,
        update_proportion=0.9,
        record_count=record_count,
        value_size=64,
    )
    runner = WorkloadRunner(
        store, spec, n_clients=n_clients, duration=duration, warmup=0.1,
        record_history=False,
    )
    t0 = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - t0
    stats = store.protocol_stats()
    net = store.network.stats
    arm: Dict[str, Any] = {
        "overrides": dict(overrides or {}),
        "wall_seconds": wall,
        "events_processed": store.sim.events_processed,
        "ops_completed": result.ops_completed,
        "sim_ops_per_wall_sec": result.ops_completed / wall if wall else 0.0,
        "messages_sent": net.messages_sent,
        "bytes_sent": net.bytes_sent,
        "stability_messages": net.count_of(*STABILITY_MESSAGE_TYPES),
        "global_stability_messages": net.count_of(*GLOBAL_STABILITY_MESSAGE_TYPES),
        "shipping_messages": net.count_of(*SHIPPING_MESSAGE_TYPES),
        "metadata": stats["metadata"],
    }
    if "batching" in stats:
        arm["batching"] = stats["batching"]
    return arm


def bench_protocol_plane(
    duration: float = 1.0,
    n_clients: int = 8,
    record_count: int = 25,
    seed: int = 1234,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Batched-vs-unbatched comparison on one write-heavy geo workload.

    Each arm runs ``repeats`` times; the arm with the best wall rate is
    kept (message counts and event counts are seed-deterministic, so
    only the wall-clock fields differ between repeats — best-of filters
    out scheduler noise).
    """

    def best(overrides: Optional[Dict[str, object]]) -> Dict[str, Any]:
        arms = [
            _run_arm(overrides, duration, n_clients, record_count, seed)
            for _ in range(max(1, repeats))
        ]
        top = max(arms, key=lambda arm: arm["sim_ops_per_wall_sec"])
        top["wall_runs"] = [arm["wall_seconds"] for arm in arms]
        return top

    unbatched = best(None)
    batched = best({"stability": "notices+batch"})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "duration_virtual_s": duration,
        "n_clients": n_clients,
        "record_count": record_count,
        "seed": seed,
        "unbatched": unbatched,
        "batched": batched,
        "ops_per_wall_sec_speedup": ratio(
            batched["sim_ops_per_wall_sec"], unbatched["sim_ops_per_wall_sec"]
        ),
        "stability_message_reduction": ratio(
            unbatched["stability_messages"], batched["stability_messages"]
        ),
        "global_stability_message_reduction": ratio(
            unbatched["global_stability_messages"],
            batched["global_stability_messages"],
        ),
        "message_reduction": ratio(
            unbatched["messages_sent"], batched["messages_sent"]
        ),
        # Simulated throughput cost of delaying notifications into flush
        # windows — should stay a single-digit percentage.
        "sim_throughput_ratio": ratio(
            batched["ops_completed"], unbatched["ops_completed"]
        ),
    }
