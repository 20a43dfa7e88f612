#!/usr/bin/env python
"""Interleaved A/B pairs of the standing benchmark: a base revision vs this tree.

The procedure of ``benchmarks/suite/README.md`` ("Comparing two commits"),
so no PR hand-rolls it again::

    python scripts/ab_pairs.py --base HEAD~1 --workload ycsb-b-1dc [--pairs 10]
        [--first-seed 301] [--seconds 5] [--smoke] [--out pairs.json]

``--base`` is a git revision (checked out with ``git worktree add`` into
a temporary directory, removed afterwards) or an existing checkout's
path. Each pair runs each tree's *own, unmodified*
``benchmarks/suite/run.py --workload W --seed S --trace 0`` once, one
seed per pair, alternating which side goes first. Per end-to-end metric
it prints each side's median and quartiles, the pairs the change won,
the base's inter-quartile distance and the README's verdict; per seed,
whether the digests agree. Host-time verdicts are for a PR description,
never a CI gate. Nothing is written unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: the README's floor: fewer pairs can show a direction, never claim a gain
MIN_PAIRS_FOR_A_GAIN = 10


def run_once(tree: Path, workload: str, seed: int, extra: Sequence[str]) -> Tuple[Dict[str, float], str]:
    """One untraced run of ``tree``'s own harness: (end-to-end metrics, digest)."""
    command = [sys.executable, str(tree / "benchmarks" / "suite" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0", *extra]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed its correctness checks")
    digest = next(line.rsplit(" ", 1)[-1] for line in lines if line.startswith("digest "))
    return {name: m["value"] for name, m in result["metrics"].items()}, digest


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision, or path of an existing checkout")
    parser.add_argument("--workload", action="append", help="repeatable; default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=301, help="pair i runs seed first-seed + i")
    parser.add_argument("--seconds", type=float, help="passed through to run.py")
    parser.add_argument("--smoke", action="store_true", help="passed through to run.py")
    parser.add_argument("--out", type=Path, help="write every run's metrics as JSON here")
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
    try:
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
    finally:
        if worktree is not None:
            subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT, check=False)
    if args.out:
        args.out.write_text(json.dumps({"base": args.base, "runs": runs}, indent=1))
    differing = [(w, row["seed"]) for w, rows in runs.items() for row in rows
                 if row["base_digest"] != row["change_digest"]]
    if differing:
        print(f"digests differ on {differing}: the change is protocol-visible, not an optimisation")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
