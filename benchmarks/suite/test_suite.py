"""Smoke test of the standing benchmark — the hook for the CI perf job.

Collected by path (tier-1 ``testpaths`` is ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Runs the four workloads shrunk (``--smoke``) twice untraced and twice
traced, and checks what a later perf or simplicity PR relies on: every
metric ``BENCHMARK.json`` names is emitted with its unit, names are
ledger-safe, and two invocations agree *exactly* on every simulated and
count metric.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def host_dependent(metric: Dict[str, Any]) -> bool:
    """Metrics measured on the host clock or its memory, not simulated."""
    return (
        metric["unit"] in ("s", "us", "MiB")
        or metric["name"].startswith(("host.", "trace."))
        or metric["name"] == "ops_per_wall_s"
    )


def smoke(trace: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def invocations(request: pytest.FixtureRequest) -> List[Any]:
    return [request.param, smoke(request.param), smoke(request.param)]


def test_names_are_ledger_safe() -> None:
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_every_named_metric_is_emitted_with_its_unit(invocations: List[Any]) -> None:
    trace, first, _ = invocations
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(first) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, result in first.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted), workload
        for metric in wanted:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_two_invocations_agree_on_every_simulated_metric(invocations: List[Any]) -> None:
    trace, first, second = invocations
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    exact = [m["name"] for m in wanted if not host_dependent(m)]
    assert exact
    for workload in first:
        for name in exact:
            assert (
                first[workload]["metrics"][name]["value"]
                == second[workload]["metrics"][name]["value"]
            ), (workload, name)
