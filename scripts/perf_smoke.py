#!/usr/bin/env python
"""Perf smoke gate for the three interim A/B tiers of ``repro.perf``.

Everything else — kernel rate, memory layout, stabilization plane —
is measured by the standing benchmark (``benchmarks/suite/run.py``),
not here. Kept out of tier-1 (two of the
gates read the wall clock, which CI machines make noisy) — run it
explicitly::

    PYTHONPATH=src python scripts/perf_smoke.py [--output /tmp/smoke.json]

What it does (each section has a ``--skip-*`` flag):

1. runs a small batched-vs-unbatched protocol-plane comparison and
   fails if the batched configuration's wall rate drops below 90% of
   the unbatched one (batching must never cost wall-clock);
2. runs the shrunk sharded scale tier at workers 1 and 2 and fails if
   the trace digests differ (the engine's determinism contract,
   enforced on any host) or — on hosts scheduling >= 2 CPUs — if the
   workers=2 wall rate is below the tier's floor;
3. runs a shrunk partial geo-replication A/B (replication degree 2 of
   3 sites on the hot-shard workload) and fails if shipping bytes/key
   at r=2 exceeds the tier's ceiling — in the smoke run or in the
   committed BENCH_PR10.json — if the per-DC record census stops
   shrinking, or if explicitly configuring the replication degree to
   the site count (i.e. full replication spelled out) changes a single
   event, message, or byte of the golden-trace workload.

Nothing is written unless ``--output`` is given; with it, the sections
that ran are saved as one JSON document on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.perf.parallel import (  # noqa: E402
    MIN_SPEEDUP_BY_WORKERS,
    PARALLEL_SMOKE_OVERRIDES,
    bench_parallel_scale,
)
from repro.perf.partial import (  # noqa: E402
    MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2,
    MIN_CENSUS_REDUCTION_R2,
    bench_partial_replication,
)
from repro.perf.protocol import bench_protocol_plane  # noqa: E402

#: Fail when the batched config's wall rate drops below this fraction of
#: the unbatched run (>10% regression).
BATCHED_FLOOR = 0.90

#: Shrunk ``perf --partial`` profile for the partial-replication gate.
PARTIAL_SMOKE = {
    "ops_per_client": 150,
    "n_clients": 6,
    "record_count": 60,
}


def _golden_counters(overrides):
    """(events, messages, bytes, summary) of the golden-trace workload
    under ``overrides`` — the full-replication invariance probe."""
    from repro.baselines import build_store
    from repro.workload import WorkloadRunner, workload

    store = build_store(
        "chainreaction",
        sites=("dc0", "dc1"),
        servers_per_site=4,
        chain_length=3,
        seed=1234,
        overrides=overrides,
    )
    spec = workload("B", record_count=25, value_size=32)
    result = WorkloadRunner(store, spec, n_clients=3, duration=0.5, warmup=0.1).run()
    return (
        store.sim.events_processed,
        store.network.stats.messages_sent,
        store.network.stats.bytes_sent,
        result.summary_row(),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the sections that ran as JSON (default: write nothing)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--skip-protocol", action="store_true",
        help="skip the batched-vs-unbatched protocol-plane gate",
    )
    parser.add_argument(
        "--skip-parallel", action="store_true",
        help="skip the sharded-engine determinism + speedup gate",
    )
    parser.add_argument(
        "--skip-partial", action="store_true",
        help="skip the partial geo-replication (replication degree) gate",
    )
    parser.add_argument(
        "--bench-pr10", default="BENCH_PR10.json", metavar="PATH",
        help="committed partial-replication benchmark the bytes/key gate audits",
    )
    args = parser.parse_args(argv)

    report = {}
    failures = []

    if not args.skip_protocol:
        proto = report["protocol_plane"] = bench_protocol_plane(
            duration=0.4, repeats=args.repeats
        )
        speedup = proto["ops_per_wall_sec_speedup"]
        print(
            f"  batched / unbatched ops per wall-s "
            f"{proto['batched']['sim_ops_per_wall_sec']:,.0f} / "
            f"{proto['unbatched']['sim_ops_per_wall_sec']:,.0f} ({speedup:.2f}x)"
        )
        print(
            f"  stability msg reduction            "
            f"{proto['stability_message_reduction']:.1f}x"
        )
        if speedup < BATCHED_FLOOR:
            failures.append(
                f"batched config runs at {speedup:.0%} of the unbatched wall "
                f"rate (floor {BATCHED_FLOOR:.0%})"
            )

    if not args.skip_parallel:
        parallel = report["parallel_scale"] = bench_parallel_scale(
            workers_list=(1, 2), overrides=PARALLEL_SMOKE_OVERRIDES
        )
        runs = {run["workers_requested"]: run for run in parallel["runs"]}
        speedup = runs[2]["speedup_vs_first"]
        floor = MIN_SPEEDUP_BY_WORKERS[2]
        cpus = parallel["sched_cpus"] or parallel["host_cpus"] or 1
        print(
            f"  sharded ops/wall-s 1w / 2w         "
            f"{runs[1]['ops_per_wall_sec']:,.0f} / "
            f"{runs[2]['ops_per_wall_sec']:,.0f} ({speedup:.2f}x, {cpus} cpu(s))"
        )
        print(
            f"  sharded trace digests match        {parallel['digests_match']}"
        )
        if not parallel["digests_match"]:
            failures.append(
                "sharded engine trace digests differ between workers=1 and "
                "workers=2 — determinism contract broken"
            )
        if cpus >= 2 and speedup < floor:
            failures.append(
                f"workers=2 wall rate is {speedup:.2f}x workers=1 "
                f"(floor {floor}x on a {cpus}-cpu host)"
            )
        elif cpus < 2:
            print(
                "  (speedup floor not enforced: host schedules a single cpu)"
            )

    if not args.skip_partial:
        partial = report["partial_replication"] = bench_partial_replication(
            repeats=1, **PARTIAL_SMOKE
        )
        ratio = partial["shipping_bytes_per_key_ratio_r2"]
        census = partial["census_reduction_r2"]
        print(
            f"  r=2 / full shipping bytes per key  {ratio:.0%} "
            f"(census cut {census:.0%}, remote-get p50 "
            f"{partial['remote_get_p50_ms_r2']:.1f} ms)"
        )
        if ratio > MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2:
            failures.append(
                f"r=2 shipping bytes/key is {ratio:.0%} of full replication "
                f"(ceiling {MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2:.0%})"
            )
        if census < MIN_CENSUS_REDUCTION_R2:
            failures.append(
                f"r=2 record census shrank only {census:.0%} "
                f"(floor {MIN_CENSUS_REDUCTION_R2:.0%})"
            )
        if os.path.exists(args.bench_pr10):
            with open(args.bench_pr10) as fh:
                committed_ratio = json.load(fh).get(
                    "shipping_bytes_per_key_ratio_r2"
                )
            if committed_ratio is not None:
                print(
                    f"  committed BENCH_PR10 bytes/key     {committed_ratio:.0%}"
                )
                if committed_ratio > MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2:
                    failures.append(
                        f"committed {args.bench_pr10} records an r=2 bytes/key "
                        f"ratio of {committed_ratio:.0%} "
                        f"(ceiling {MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2:.0%}) — "
                        "regenerate it from a passing build"
                    )
        # Spelling out full replication (degree == site count) must be
        # a no-op: the golden-trace workload may not move by one byte.
        default_run = _golden_counters(None)
        explicit_run = _golden_counters({"replication_degree": 2})
        print(
            f"  golden trace at explicit r=sites   "
            f"{'unchanged' if default_run == explicit_run else 'DIVERGED'}"
        )
        if default_run != explicit_run:
            failures.append(
                "explicit replication_degree == site count changed the "
                f"golden-trace run: default {default_run[:3]} vs "
                f"explicit {explicit_run[:3]}"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        print(f"ok — report written to {args.output}")
    else:
        print("ok — report not written (pass --output PATH to keep it)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
