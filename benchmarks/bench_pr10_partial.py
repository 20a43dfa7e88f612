"""PR10 — Partial geo-replication A/B: replication degree vs full.

Sharding the keyspace over DCs (degree ``r`` owners per shard) bounds
what full replication lets grow with ``sites x keys``: geo-shipping
traffic, causal metadata, and per-DC memory. Three claims back this PR,
measured on one hot-shard geo workload (3 sites, R=3, k=2, identical
fixed op sequence per arm):

1. **Shipping bytes per key** — at ``r=2`` of 3 sites the geo-shipping
   bytes per key must drop at least 30% against full replication:
   every DC-stable write fans out to 1 owner peer instead of 2, and
   per-destination dependency pruning trims the entries it carries.
2. **Per-DC memory** — the total record census must shrink by the
   non-owned fraction (1/3 at ``r=2``); the preload installs nothing
   on non-owner sites and remote updates never reach them.
3. **Honest remote-get price** — operations on non-owned shards pay a
   WAN round-trip to the primary owner. Their p50/p99 are reported as
   their own distribution next to the sub-millisecond local reads, not
   blended into an average that would hide the tail.

``r=1`` (no geo redundancy, zero shipping) is included as the floor.

Run as a script to (re)generate ``BENCH_PR10.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_pr10_partial.py

or as part of the benchmark suite::

    pytest benchmarks/bench_pr10_partial.py -s
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict

from repro.perf.partial import (
    MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2,
    MIN_CENSUS_REDUCTION_R2,
    bench_partial_replication,
)

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"


def collect(repeats: int = 3) -> Dict[str, Any]:
    report = bench_partial_replication(repeats=repeats)
    report["python"] = platform.python_version()
    report["platform"] = platform.platform()
    return report


def check(report: Dict[str, Any]) -> list:
    failures = []
    ratio = report["shipping_bytes_per_key_ratio_r2"]
    if ratio > MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2:
        failures.append(
            f"r=2 shipping bytes/key is {ratio:.2f}x of full replication "
            f"> {MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2}x ceiling"
        )
    if report["census_reduction_r2"] < MIN_CENSUS_REDUCTION_R2:
        failures.append(
            f"r=2 record census shrank only {report['census_reduction_r2']:.0%} "
            f"< {MIN_CENSUS_REDUCTION_R2:.0%}"
        )
    by_arm = {arm["arm"]: arm for arm in report["arms"]}
    for arm in report["arms"]:
        if arm["errors"]:
            failures.append(f"{arm['arm']} arm finished with {arm['errors']} errors")
    r2 = by_arm["r=2"]
    if r2["remote_get_samples"] == 0:
        failures.append("r=2 arm forwarded no gets — the A/B measured nothing remote")
    if r2["remote_get_p50_ms"] <= r2["local_get_p50_ms"]:
        failures.append(
            "r=2 remote-get p50 not above local p50 — forwarding latency "
            "is not being measured honestly"
        )
    return failures


def test_partial_replication_ab() -> None:
    report = collect(repeats=1)
    failures = check(report)
    assert not failures, "; ".join(failures)


def main() -> int:
    report = collect()
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    for arm in report["arms"]:
        census = arm["records_per_site"]
        print(
            f"{arm['arm']:>5}: {arm['ops_per_wall_sec']:>8,.0f} ops/wall-s  "
            f"{arm['shipping_bytes_per_key']:>8,.0f} ship B/key  "
            f"census {sum(census.values()):>4} ({max(census.values())} max/DC)  "
            f"remote-get p50 {arm['remote_get_p50_ms']:6.1f} ms "
            f"({arm['remote_get_samples']} samples)"
        )
    print(
        f"r=2 vs full: {1 - report['shipping_bytes_per_key_ratio_r2']:.0%} fewer "
        f"shipping bytes/key, {report['census_reduction_r2']:.0%} smaller census, "
        f"remote-get p50 {report['remote_get_p50_ms_r2']:.1f} ms "
        f"(local {report['local_get_p50_ms_full']:.2f} ms)"
    )
    print(f"report written to {REPORT_PATH}")
    failures = check(report)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
