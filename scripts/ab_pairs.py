#!/usr/bin/env python
"""Interleaved A/B pairs of the standing benchmark: a base revision vs this tree.

The procedure of ``benchmarks/suite/README.md`` ("Comparing two commits"),
so no PR hand-rolls it again::

    python scripts/ab_pairs.py --base HEAD~1 --workload ycsb-b-1dc [--pairs 10]
        [--first-seed 301] [--seconds 5] [--smoke] [--trace] [--out pairs.json]

``--base`` is a git revision (checked out with ``git worktree add`` into
a temporary directory, removed afterwards) or an existing checkout's
path. Each pair runs each tree's *own, unmodified*
``benchmarks/suite/run.py --workload W --seed S --trace 0`` once, one
seed per pair, alternating which side goes first. Per end-to-end metric
it prints each side's median and quartiles, the pairs the change won,
the base's inter-quartile distance and the README's verdict; per seed,
whether the digests agree. ``--trace`` adds one traced pass per side
(``--trace 1`` at the first seed) and prints, per layer, both sides'
``self_s`` and ``calls`` and their differences — where the time went,
and whether a layer's call count moved. Host-time verdicts are for a PR
description, never a CI gate. Nothing is written unless ``--out`` is
given.

``--campaigns`` compares *behaviour* instead of speed::

    python scripts/ab_pairs.py --campaigns --base HEAD~1 [--campaign crash-head]
        [--stability notices] [--seed 42] [--expect-different rolling-crashes/notices/2dc]

For every built-in fault campaign x stabilization plane (``notices``,
``notices+batch``, ``clock``) x sites (as shipped, plus ``dc0`` + ``dc1``
when the campaign ships single-site) it runs
``run_campaign(spec, seed, capture_trace=True)`` once in each tree's own
interpreter and prints messages / bytes / events / ops / sha256 of the
message trace for both, the causal and invariant violations each side
found, and ``equal`` or ``DIFFERENT``. The verdict judges every column
but ``events``: how many kernel events a run takes is the simulator's
cost, not behaviour, so it is printed and not judged. Exit 1 on a
``DIFFERENT`` row not named by ``--expect-different ROW``
(``campaign/plane/shipped|2dc``), and on a named row that came out equal.

``--pins`` compares the recorded runs of ``tests/pins.json``::

    python scripts/ab_pairs.py --pins --base HEAD~1 [--expect-different golden/cops] [--write]

It runs this tree's pin scripts (``tests/test_pins.py``) once against
the base's ``src`` and once against this tree's, each in its own
interpreter, and prints every field that differs as
``script field: base -> tree``. Exit 1 on a differing script not named
by ``--expect-different SCRIPT``, on a named one that came out equal,
and — unless ``--write`` — when this tree's run differs from the table.
``--write`` rewrites the table from this tree's run when every differing
script is named: the one way pins are re-recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import STABILITY_PLANES  # noqa: E402 - after the path line above

#: the README's floor: fewer pairs can show a direction, never claim a gain
MIN_PAIRS_FOR_A_GAIN = 10


def run_once(tree: Path, workload: str, seed: int, extra: Sequence[str],
             trace: bool = False) -> Tuple[Dict[str, float], str]:
    """One run of ``tree``'s own harness: (metrics, digest) — the
    end-to-end metrics untraced, the per-layer ones with ``trace``."""
    command = [sys.executable, str(tree / "benchmarks" / "suite" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)), *extra]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed its correctness checks")
    digest = next(line.rsplit(" ", 1)[-1] for line in lines if line.startswith("digest "))
    return {name: m["value"] for name, m in result["metrics"].items()}, digest


#: run in each tree's interpreter with that tree's ``src`` on the path:
#: argv = campaign, plane, "shipped" | "2dc", seed; prints one JSON line.
#: A plane name is the override where the tree's ``STABILITY_PLANES``
#: admits it; a base from before that tuple spells ``notices+batch``
#: with its own legacy dict.
_CAMPAIGN_RUNNER = """
import dataclasses, hashlib, json, sys
from repro.core import config
from repro.errors import ConfigError
from repro.faults.campaign import CAMPAIGNS
from repro.faults.engine import run_campaign

name, plane, sites, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
spec = CAMPAIGNS[name]
overrides = dict(spec.overrides or {})
if plane in getattr(config, "STABILITY_PLANES", ("notices", "clock")):
    overrides["stability"] = plane
else:
    overrides.update(config.BATCHED_OVERRIDES)
spec = dataclasses.replace(spec, overrides=overrides)
if sites == "2dc":
    spec = dataclasses.replace(spec, sites=("dc0", "dc1"))
try:
    result = run_campaign(spec, seed, capture_trace=True)
except ConfigError as exc:
    print(json.dumps({"skipped": str(exc)}))
    sys.exit(0)
print(json.dumps({
    "messages": len(result.trace),
    "bytes": sum(entry[4] for entry in result.trace),
    "events": result.events_processed,
    "ops": result.ops_completed,
    "sha256": hashlib.sha256(repr(result.trace).encode()).hexdigest(),
    "causal": result.causal_violations,
    "invariant": len(result.invariant_report.violations),
}))
"""


def _in_tree(tree: Path, code: str, *argv: str, path: Sequence[Path] = ()) -> Any:
    """Run ``code`` in ``tree``'s own interpreter state: its ``src`` (then
    ``path``) on the path, nothing of this process imported. Returns the
    JSON it prints."""
    pythonpath = os.pathsep.join(str(p) for p in (tree / "src", *path))
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tree, check=True, text=True,
                          stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": pythonpath})
    return json.loads(done.stdout.strip().splitlines()[-1])


def shipped_campaigns(tree: Path) -> Dict[str, List[str]]:
    """``tree``'s built-in campaigns: name -> the sites it ships with."""
    return _in_tree(tree, "import json; from repro.faults.campaign import CAMPAIGNS; "
                    "print(json.dumps({n: list(s.sites) for n, s in CAMPAIGNS.items()}))")


def run_campaign_once(tree: Path, name: str, plane: str, sites: str, seed: int) -> Dict[str, Any]:
    """One campaign run in ``tree``: counts, trace digest and violations."""
    return _in_tree(tree, _CAMPAIGN_RUNNER, name, plane, sites, str(seed))


def compare_campaigns(base_tree: Path, campaigns: Optional[Sequence[str]], planes: Sequence[str],
                      seed: int, expected: Sequence[str]) -> int:
    """The ``--campaigns`` table; returns the exit code."""
    shipped = shipped_campaigns(ROOT)
    unknown = sorted(set(campaigns or ()) - set(shipped))
    if unknown:
        raise SystemExit(f"unknown campaign(s) {unknown}; choose from {sorted(shipped)}")
    counts = ("messages", "bytes", "events", "ops")
    judged = ("messages", "bytes", "ops", "sha256", "causal", "invariant")
    print(f"  {'row':<44} " + " ".join(f"{c + ' base/change':>21}" for c in counts)
          + f" {'sha256 base/change':>19} {'causal':>7} {'invariant':>9}  verdict")
    different: List[str] = []
    for name in campaigns or list(shipped):
        for plane in planes:
            for sites in ("shipped", "2dc") if len(shipped[name]) == 1 else ("shipped",):
                row = f"{name}/{plane}/{sites}"
                base = run_campaign_once(base_tree, name, plane, sites, seed)
                change = run_campaign_once(ROOT, name, plane, sites, seed)
                if "skipped" in base or "skipped" in change:
                    same = "skipped" in base and "skipped" in change
                    print(f"  {row:<44} {'skipped: ' + change.get('skipped', base.get('skipped', '')):<60}"
                          f"  {'equal' if same else 'DIFFERENT'}", flush=True)
                else:
                    same = all(base[c] == change[c] for c in judged)
                    print(f"  {row:<44} " + " ".join(f"{f'{base[c]}/{change[c]}':>21}" for c in counts)
                          + f" {base['sha256'][:8] + '/' + change['sha256'][:8]:>19}"
                          + f" {str(base['causal']) + '/' + str(change['causal']):>7}"
                          + f" {str(base['invariant']) + '/' + str(change['invariant']):>9}"
                          + f"  {'equal' if same else 'DIFFERENT'}", flush=True)
                if not same:
                    different.append(row)
    return 0 if _report_expected(different, expected) else 1


def _report_expected(different: Sequence[str], expected: Sequence[str]) -> bool:
    """Print the rows that differ unnamed and the named ones that did
    not; True when there are none of either."""
    surprises = sorted(set(different) - set(expected))
    stale = sorted(set(expected) - set(different))
    if surprises:
        print(f"DIFFERENT and not named by --expect-different: {surprises}")
    if stale:
        print(f"named by --expect-different but equal (or not run): {stale}")
    return not (surprises or stale)


PINS_TABLE = ROOT / "tests" / "pins.json"


def record_pins(tree: Path) -> Dict[str, Dict[str, Any]]:
    """This tree's pin scripts run on ``tree``'s ``src``: script id -> fields."""
    return _in_tree(tree, "import json, test_pins; print(json.dumps(test_pins.record()))",
                    path=(ROOT / "tests",))


def pin_diffs(old: Dict[str, Dict[str, Any]], new: Dict[str, Dict[str, Any]]) -> List[str]:
    """``script field: old -> new`` for every field that differs; a
    script or field one side lacks reads ``None`` there."""
    lines = []
    for script in sorted(set(old) | set(new)):
        a, b = old.get(script, {}), new.get(script, {})
        lines += [f"{script} {field}: {a.get(field)!r} -> {b.get(field)!r}"
                  for field in sorted(set(a) | set(b)) if a.get(field) != b.get(field)]
    return lines


def pins_json(rows: Dict[str, Dict[str, Any]]) -> str:
    """``rows`` as ``tests/pins.json`` keeps them: one script per line."""
    return "{\n" + ",\n".join(f"{json.dumps(script)}: {json.dumps(rows[script], sort_keys=True)}"
                              for script in sorted(rows)) + "\n}\n"


def compare_pins(base_tree: Path, expected: Sequence[str], write: bool) -> int:
    """The ``--pins`` diff; returns the exit code."""
    base, tree = record_pins(base_tree), record_pins(ROOT)
    moved = pin_diffs(base, tree)
    for line in moved:
        print(line)
    different = sorted(script for script in set(base) | set(tree) if base.get(script) != tree.get(script))
    print(f"{len(moved)} field(s) of {len(different)} of {len(tree)} script(s) differ between base and tree")
    ok = _report_expected(different, expected)
    if write:
        if ok:
            PINS_TABLE.write_text(pins_json(tree))
            print(f"wrote {PINS_TABLE}")
        return 0 if ok else 1
    stale = pin_diffs(json.loads(PINS_TABLE.read_text()), tree)
    for line in stale:
        print(f"this tree's run differs from tests/pins.json: {line} (table -> tree)")
    return 0 if ok and not stale else 1


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: Dict[str, Any], base: List[float], change: List[float]) -> Tuple[int, int, str]:
    """(pairs the change won, pairs tied, README step 4 verdict) for one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    ties = sum(1 for a, b in zip(base, change) if a == b)
    (a1, a2, a3), (b1, b2, b3) = quartiles(base), quartiles(change)
    if len(base) >= MIN_PAIRS_FOR_A_GAIN and wins * 10 >= len(base) * 9 and sign * (b2 - a2) > a3 - a1:
        return wins, ties, "gain"
    if a2 and sign * (a2 - b2) / abs(a2) > metric["bound"]:
        return wins, ties, "WORSE THAN BOUND"
    spread = max(a3 - a1, b3 - b1) / abs(a2) if a2 else 0.0
    return wins, ties, "unresolved" if spread > metric["bound"] else "within bound"


def trace_table(spec: Dict[str, Any], base: Dict[str, float], change: Dict[str, float]) -> List[str]:
    """Per layer, one traced pass per side: ``self_s`` and ``calls`` of
    base and change and their differences, then the unattributed share."""
    lines = [f"  {'layer':<26} {'base self_s':>12} {'change':>9} {'diff':>9} "
             f"{'base calls':>12} {'change':>10} {'diff':>10}"]
    for metric in spec["per_layer"]:
        layer, _, kind = metric["name"].rpartition(".")
        if kind != "self_s":
            continue
        a_s, b_s = base[f"{layer}.self_s"], change[f"{layer}.self_s"]
        a_c, b_c = base[f"{layer}.calls"], change[f"{layer}.calls"]
        lines.append(f"  {layer:<26} {a_s:>12.4f} {b_s:>9.4f} {b_s - a_s:>+9.4f} "
                     f"{a_c:>12.0f} {b_c:>10.0f} {b_c - a_c:>+10.0f}")
    name = "trace.unattributed_share"
    lines.append(f"  {name:<26} {base[name]:>12.4f} {change[name]:>9.4f} {change[name] - base[name]:>+9.4f}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision, or path of an existing checkout")
    parser.add_argument("--workload", action="append", help="repeatable; default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=301, help="pair i runs seed first-seed + i")
    parser.add_argument("--seconds", type=float, help="passed through to run.py")
    parser.add_argument("--smoke", action="store_true", help="passed through to run.py")
    parser.add_argument("--trace", action="store_true",
                        help="also one traced pass per side at --first-seed: per-layer self_s and calls")
    parser.add_argument("--out", type=Path, help="write every run's metrics as JSON here")
    parser.add_argument("--campaigns", action="store_true",
                        help="compare fault-campaign message traces instead of benchmark pairs")
    parser.add_argument("--campaign", action="append", help="with --campaigns, repeatable; default: every built-in")
    parser.add_argument("--stability", action="append", choices=STABILITY_PLANES,
                        help="with --campaigns, repeatable; default: all three planes")
    parser.add_argument("--seed", type=int, default=42, help="with --campaigns: the campaign seed")
    parser.add_argument("--pins", action="store_true",
                        help="compare the pinned runs of tests/pins.json instead of benchmark pairs")
    parser.add_argument("--write", action="store_true",
                        help="with --pins: rewrite tests/pins.json from this tree's run "
                             "(only when every differing script is named)")
    parser.add_argument("--expect-different", action="append", default=[], metavar="ROW",
                        help="repeatable: a row known to differ; with --campaigns campaign/plane/shipped|2dc, "
                             "with --pins a script id")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    extra = (["--seconds", str(args.seconds)] if args.seconds else []) + (["--smoke"] if args.smoke else [])

    worktree: Optional[str] = None
    if Path(args.base).is_dir():
        base_tree = Path(args.base).resolve()
    else:
        worktree = tempfile.mkdtemp(prefix="ab_pairs_")
        subprocess.run(["git", "worktree", "add", "--detach", worktree, args.base],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        base_tree = Path(worktree)
    runs: Dict[str, List[Dict[str, Any]]] = {}
    traces: Dict[str, Dict[str, Dict[str, float]]] = {}
    try:
        if args.pins:
            return compare_pins(base_tree, args.expect_different, args.write)
        if args.campaigns:
            return compare_campaigns(base_tree, args.campaign, args.stability or STABILITY_PLANES,
                                     args.seed, args.expect_different)
        for workload in workloads:
            rows = runs[workload] = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = [("base", base_tree), ("change", ROOT)]
                row: Dict[str, Any] = {"seed": seed, "first": order[i % 2][0]}
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    row[side], row[side + "_digest"] = run_once(tree, workload, seed, extra)
                rows.append(row)
                same = "equal" if row["base_digest"] == row["change_digest"] else "DIFFER"
                print(f"{workload} seed {seed} ({row['first']} first): digests {same} "
                      f"({row['base_digest']} / {row['change_digest']})", flush=True)
            print(f"== {workload}: {args.pairs} pairs, base {args.base} vs change {ROOT} ==")
            print(f"  {'metric':<22} {'base q1/median/q3':>34} {'change q1/median/q3':>34} {'ratio':>6} "
                  f"{'change won':>15} {'base IQR':>10}  verdict")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                base = [row["base"][name] for row in rows]
                change = [row["change"][name] for row in rows]
                wins, ties, label = verdict(metric, base, change)
                (a1, a2, a3), (b1, b2, b3) = quartiles(base), quartiles(change)
                ratio = b2 / a2 if a2 else float("nan")
                won = f"{wins}/{len(rows)}" + (f" ({ties} ties)" if ties else "")
                print(f"  {name:<22} {f'{a1:.5g} / {a2:.5g} / {a3:.5g}':>34} {f'{b1:.5g} / {b2:.5g} / {b3:.5g}':>34} "
                      f"{ratio:>6.3f} {won:>15} {a3 - a1:>10.4g}  {label}")
            if args.trace:
                traced = {side: run_once(tree, workload, args.first_seed, extra, trace=True)[0]
                          for side, tree in (("base", base_tree), ("change", ROOT))}
                traces[workload] = traced
                print(f"== {workload}: traced pass, seed {args.first_seed} ==")
                print("\n".join(trace_table(spec, traced["base"], traced["change"])))
    finally:
        if worktree is not None:
            subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT, check=False)
    if args.out:
        args.out.write_text(json.dumps({"base": args.base, "runs": runs, "traces": traces}, indent=1))
    differing = [(w, row["seed"]) for w, rows in runs.items() for row in rows
                 if row["base_digest"] != row["change_digest"]]
    if differing:
        print(f"digests differ on {differing}: the change is protocol-visible, not an optimisation")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
