"""The repo's standing benchmark: four workloads, one command.

    PYTHONPATH=src python benchmarks/suite/run.py [--seed 1234] [--workload NAME]
        [--seconds 10] [--trace [0|1]] [--smoke] [--out DIR] [--crosscheck NAME]

Prints every metric named in ``BENCHMARK.json`` with its unit, checks the
outputs are correct, and exits non-zero otherwise. With ``--workload`` the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``); without
it all four workloads run and the last line maps workload names to those
objects. See ``README.md`` beside this file for the glossary.

Each pass of each workload runs in a fresh subprocess of this script
(``--child``), so peak RSS, the intern pool and the installed shims of
one pass never leak into another. Nothing is written unless ``--out``
names a directory, and a git-tracked file is never overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"

#: acceptance limit on traced time no shim accounts for (warned, not failed)
UNATTRIBUTED_LIMIT = 0.10
#: calibration drift within one pass beyond which the set is called noisy
SPIN_DRIFT_LIMIT = 0.15
#: scheduled callbacks kept as full spans in the Chrome trace
TRACE_EVENTS = 2_000


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# child side: one pass in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import measure
    from workloads import by_name

    workload = by_name(args.workload).sized(args.seconds, args.smoke)
    if args.child == "verify":
        out = measure.verify_pass(workload, args.seed, args.seconds)
    elif args.child == "measure":
        out = measure.run_pass(workload, args.seed, args.seconds)
    elif args.child == "traced":
        import shims

        tracer = shims.Tracer()
        shims.install(tracer)
        log_events = TRACE_EVENTS if args.trace_file else 0
        out = measure.run_pass(workload, args.seed, args.seconds, tracer, log_events)
        if args.trace_file:
            Path(args.trace_file).write_text(tracer.chrome_trace())
    else:  # profile
        import crosscheck

        out = crosscheck.profile_pass(workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def run_child(kind: str, args: argparse.Namespace, workload: str, trace_file: Optional[Path] = None) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} pass of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def safe_out_path(out_dir: Path, name: str) -> Path:
    """``out_dir/name``, refusing to overwrite a git-tracked file."""
    path = out_dir / name
    if path.exists():
        done = subprocess.run(
            ["git", "ls-files", "--error-unmatch", path.name], cwd=path.parent,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
        )
        if done.returncode == 0:
            raise SystemExit(f"refusing to overwrite git-tracked file {path}; choose another --out")
    return path


def run_workload(args: argparse.Namespace, spec: Dict[str, Any], name: str) -> Dict[str, Any]:
    """All passes of one workload; returns its metrics, checks and notes."""
    verify = run_child("verify", args, name)
    measured = run_child("measure", args, name)
    traced = None
    if args.trace:
        trace_file = safe_out_path(args.out, f"{name}.trace.json") if args.out else None
        traced = run_child("traced", args, name, trace_file)

    exact, host = measured["exact"], measured["host"]
    setups = measured["setup_s"] + verify["setup_s"]
    setup_s = statistics.median(setups)
    values: Dict[str, float] = dict(exact)
    values.update(
        {
            "setup_s": setup_s,
            "ops_per_wall_s": host["ops_per_wall_s"],
            "wall_s": setup_s + host["wall_s_after_setup"],
            "peak_rss_mib": host["peak_rss_mib"],
        }
    )
    for key, value in host.items():
        if "." in key:
            values[key] = statistics.median(value) if isinstance(value, list) else value

    checks: List[Tuple[str, bool, str]] = [
        ("failed_op_share == 0", measured["failed"] == 0 and verify["failed"] == 0,
         f"{measured['failed']} of {measured['attempted']} measured ops failed"),
        ("verification pass reproduces the measured pass's counters (events, messages, bytes, ops)",
         verify["prefix_counters"] == measured["prefix_counters"],
         f"{verify['prefix_counters']} vs {measured['prefix_counters']}"),
        ("check_causal finds no violation", verify["causal_violations"] == 0,
         f"{verify['history_ops']} recorded ops; {verify['first_violation']}"),
        ("sampled written keys converged after the drain", verify["keys_divergent"] == 0,
         f"{verify['keys_divergent']} of {verify['keys_checked']} divergent"),
    ]
    warnings: List[str] = []
    if host["host.spin_drift"] > SPIN_DRIFT_LIMIT:
        warnings.append(
            f"host.spin_s drifted {host['host.spin_drift']:.0%} within the measured pass: noisy set"
        )

    if traced is not None:
        differing = sorted(k for k in exact if traced["exact"][k] != exact[k])
        checks.append(
            ("traced pass leaves every simulated and count metric identical",
             not differing and traced["failed"] == 0, ", ".join(differing) or traced["digest"])
        )
        t_host = traced["host"]
        # Self times are raw seconds of the traced pass; put them on the
        # same reference-host scale as every other time.
        factor = t_host["host.speed_factor"]
        layers = traced["layers"]
        attributed = 0.0
        for layer, (self_s, calls) in layers.items():
            if layer == "event":
                continue
            values[f"{layer}.self_s"] = self_s / factor
            values[f"{layer}.calls"] = calls
            attributed += self_s
        values["trace.overhead_ratio"] = t_host["sim.kernel.run_s"] / host["sim.kernel.run_s"]
        values["trace.unattributed_share"] = 1.0 - attributed / t_host["total_wall"]
        if values["trace.unattributed_share"] > UNATTRIBUTED_LIMIT:
            warnings.append(
                f"trace.unattributed_share {values['trace.unattributed_share']:.3f} exceeds {UNATTRIBUTED_LIMIT}"
            )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    checks.append(("every metric BENCHMARK.json names is emitted", not missing, ", ".join(missing)))
    return {
        "workload": name,
        "values": values,
        "setups": setups,
        "samples": measured["samples"],
        "rate_quartiles": host["ops_per_wall_s_quartiles"],
        "rate_ratio_of_sums": host["ops_per_wall_s_ratio_of_sums"],
        "digest": measured["digest"],
        "checks": checks,
        "warnings": warnings,
        "attempted": measured["attempted"],
        "failed": measured["failed"] + verify["failed"],
        "kernel_backend": measured["kernel_backend"],
        "correct": all(ok for _, ok, _ in checks),
        "reported": [m["name"] for m in wanted if m["name"] in values],
    }


def contract_object(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["values"][name], "unit": units[name]} for name in result["reported"]
        },
    }


def print_report(result: Dict[str, Any], spec: Dict[str, Any], fingerprint: Dict[str, Any], traced: bool) -> None:
    values = result["values"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == result["workload"])
    print(f"== {result['workload']} ==")
    print(f"why: {why}")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fingerprint.items())
          + f" kernel={result['kernel_backend']}")
    samples = result["samples"]
    print(
        f"samples: {samples['get']} gets, {samples['put']} puts, {samples['visibility']} visibility; "
        f"{samples['window_slices']} window slices; setup_s median of {len(result['setups'])} "
        f"(min {min(result['setups']):.4f}, max {max(result['setups']):.4f}); ops_per_wall_s quartiles "
        f"{result['rate_quartiles'][0]:.1f}..{result['rate_quartiles'][1]:.1f}, ratio of sums "
        f"{result['rate_ratio_of_sums']:.1f}"
    )
    print("host times are reference-host seconds (wall / host.speed_factor); "
          "raw wall is host.raw_wall_s. VersionVector and DepTable calls are not "
          "shimmed: their time is inside their callers' self_s.")

    def row(metric: Dict[str, Any]) -> None:
        name = metric["name"]
        if name not in values:
            return
        bound = f"  bound {metric['bound']:.0%}" if "bound" in metric else ""
        print(f"  {name:<44} {values[name]:>16.6g} {metric['unit']:<10} {metric['better']}{bound}")

    print("end-to-end (untraced pass):")
    for metric in spec["end_to_end"]:
        row(metric)
    print(f"  {'failed_op_share':<44} {values['failed_op_share']:>16.6g} {'ratio':<10} lower  must be 0")
    print("per-layer" + (" (phases and counts untraced; self_s, calls traced):" if traced else
                         " (untraced part; --trace adds self_s and calls):"))
    for metric in spec["per_layer"]:
        row(metric)
    print("checks:")
    for label, ok, detail in result["checks"]:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}" + (f" [{detail}]" if detail and not ok else ""))
    for warning in result["warnings"]:
        print(f"  warning: {warning}")
    print(f"digest (events, messages, bytes, ops, summary_row): {result['digest']}")


def print_predictions(results: Dict[str, Dict[str, Any]]) -> None:
    """The structural predictions of the README's interaction table; a
    contradiction is reported, never tuned away."""
    def value(workload: str, metric: str) -> Optional[float]:
        return results.get(workload, {}).get("values", {}).get(metric)

    lines: List[Tuple[str, bool]] = []
    b, n, c, k = "ycsb-b-1dc", "geo-write-notices", "geo-write-clock", "keyspace-1e5"
    if value(b, "core.geo.self_s") is not None:
        lines.append((f"core.geo.self_s == 0 on {b}", value(b, "core.geo.self_s") == 0))
    if value(b, "core.stability_plane.global_messages") is not None:
        lines.append((f"core.stability_plane.global_messages == 0 on {b}",
                      value(b, "core.stability_plane.global_messages") == 0))
    per_op = [value(w, "net.network.messages_per_op") for w in (n, c, b)]
    if None not in per_op:
        lines.append((f"net.network.messages_per_op: {n} > {c} > {b} ({per_op[0]:.1f}, {per_op[1]:.1f}, {per_op[2]:.1f})",
                      per_op[0] > per_op[1] > per_op[2]))
    for workload in (b, n, c, k):
        preload, wall = value(workload, "core.datastore.preload_s"), value(workload, "wall_s")
        if preload is None or wall is None:
            continue
        share = preload / wall
        expected = share >= 0.25 if workload == k else share < 0.05
        lines.append((f"core.datastore.preload_s is {share:.1%} of wall_s on {workload} "
                      f"(predicted {'>= 25%' if workload == k else '< 5%'})", expected))
    if lines:
        print("== structural predictions ==")
        for label, ok in lines:
            print(f"  {'holds     ' if ok else 'CONTRADICTED'} {label}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run-phase budget per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run the traced pass; the JSON line then holds the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="budgets / 10, keyspace at 1e4 keys")
    parser.add_argument("--out", type=Path, help="also write results (and Chrome traces) into this directory")
    parser.add_argument("--crosscheck", metavar="WORKLOAD",
                        help="compare shim shares with one cProfile run of WORKLOAD")
    parser.add_argument("--child", choices=("verify", "measure", "traced", "profile"), help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SUITE), str(SRC)]
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke and not args.child:
        args.seconds = args.seconds / 10.0
    if args.child:
        return child_main(args)

    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        for name in selected:  # refuse before measuring, not after
            safe_out_path(args.out, f"{name}.json")

    if args.crosscheck:
        if args.crosscheck not in names:
            raise SystemExit(f"unknown workload {args.crosscheck!r}; choose from {names}")
        import crosscheck

        profile = run_child("profile", args, args.crosscheck)
        traced = run_child("traced", args, args.crosscheck)
        print(crosscheck.report(args.crosscheck, profile, traced))
        return 0

    fingerprint = {
        "python": platform.python_version(), "platform": platform.platform(terse=True),
        "nproc": os.cpu_count(), "commit": git_commit(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        result = run_workload(args, spec, name)
        results[name] = result
        print_report(result, spec, fingerprint, bool(args.trace))
        if args.out:
            record = {"fingerprint": fingerprint, **{k: v for k, v in result.items() if k != "reported"}}
            safe_out_path(args.out, f"{name}.json").write_text(json.dumps(record, indent=1))
    if not args.workload and not args.smoke:  # the predictions are sized for the full budget
        print_predictions(results)
    objects = {name: contract_object(result, units) for name, result in results.items()}
    print(json.dumps(objects[args.workload] if args.workload else objects))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
