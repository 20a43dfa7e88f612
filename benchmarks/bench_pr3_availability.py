"""PR3 — Availability under faults: the crash-head campaign as a report.

The E9 story re-run through the fault-campaign engine: a seeded crash
of the chain head for a hot key, a recovery, and the workload's
throughput/latency measured before, during, and after the fault window
— with every operation accounted for (ok / degraded / timeout) and the
chain invariants plus the causal history audited.

Run as a script to (re)generate ``BENCH_PR3.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_pr3_availability.py

or as part of the benchmark suite::

    pytest benchmarks/bench_pr3_availability.py -s
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from repro.faults import campaign, run_campaign

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"
SEED = 42


def collect(clients: int = 16, seed: int = SEED) -> dict:
    spec = campaign("crash-head").with_updates(clients=clients)
    result = run_campaign(spec, seed=seed)
    report = result.to_report()
    report["python"] = platform.python_version()
    phases = {p.phase: p for p in result.phases}
    recovered = (
        phases["after"].ops_per_sec > phases["during"].ops_per_sec
        and phases["during"].ops_per_sec < 0.9 * phases["before"].ops_per_sec
    )
    report["recovery"] = {
        "before_ops_s": phases["before"].ops_per_sec,
        "during_ops_s": phases["during"].ops_per_sec,
        "after_ops_s": phases["after"].ops_per_sec,
        "before_get_p99_ms": phases["before"].get_p99_ms,
        "during_get_p99_ms": phases["during"].get_p99_ms,
        "after_get_p99_ms": phases["after"].get_p99_ms,
        "recovered": recovered,
    }
    return report


def test_pr3_availability(scale):
    from bench_utils import run_once

    report = run_once(lambda: collect(clients=scale.latency_clients))
    print()
    for phase in ("before", "during", "after"):
        rec = report["recovery"]
        print(
            f"  {phase:7s}: {rec[f'{phase}_ops_s']:8.0f} ops/s   "
            f"get p99 {rec[f'{phase}_get_p99_ms']:6.2f} ms"
        )
    assert report["clean"], report
    assert report["recovery"]["recovered"], report["recovery"]
    assert report["outcomes"]["unresolved"] == 0


def main() -> int:
    print("running the crash-head availability campaign ...")
    report = collect()
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    rec = report["recovery"]
    for phase in ("before", "during", "after"):
        print(
            f"  {phase:7s}: {rec[f'{phase}_ops_s']:8.0f} ops/s   "
            f"get p99 {rec[f'{phase}_get_p99_ms']:6.2f} ms"
        )
    print(f"clean: {report['clean']}   recovered: {rec['recovered']}")
    print(f"report written to {REPORT_PATH}")
    return 0 if report["clean"] and rec["recovered"] else 1


if __name__ == "__main__":
    sys.exit(main())
