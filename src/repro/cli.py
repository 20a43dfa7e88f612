"""Command-line interface: run workloads and consistency checks from a shell.

Eight subcommands, mirroring how the paper's evaluation is exercised:

- ``repro run`` — drive a YCSB workload against any protocol and print
  the throughput/latency summary (optionally with a consistency audit
  of the recorded history — ``--check`` exits 1 on any causal or
  session-guarantee violation — and a staleness analysis);
- ``repro consistency`` — run the geo causality probe against one or
  more protocols and print the anomaly table (experiment E10);
- ``repro perf`` — run one of the three interim A/B tiers the standing
  benchmark has no arm for yet (``--protocol`` batching, ``--scale
  --workers`` sharded engine, ``--partial`` replication degree);
  everything else is measured with ``benchmarks/suite/run.py`` — see
  ``docs/PERFORMANCE.md``;
- ``repro faults`` — run a named fault campaign (seeded crashes,
  partitions, slow links over a live deployment) and report the
  per-operation outcomes, availability phases, and invariant audit;
  see ``docs/FAULTS.md``;
- ``repro lint`` — run the determinism/protocol-invariant AST linter
  over the source tree (optionally plus the typing gate); see
  ``docs/ANALYSIS.md``;
- ``repro sanitize`` — run one experiment twice under the same seed and
  diff the message traces (the simulation race detector), optionally
  with the chain-invariant monitors attached; ``--workers N`` runs the
  same check through the multi-core sharded engine and additionally
  verifies the worker-count-invariance promise;
- ``repro explore`` — the bounded schedule explorer: enumerate every
  message-delivery interleaving and crash/recover placement a small
  named scope admits (partial-order reduced), check the chain-invariant
  monitors and the causal checker at every terminal state, and minimize
  any violation to a replayable counterexample schedule file; see
  ``docs/ANALYSIS.md`` for the proving-ground scenarios;
- ``repro info`` — show the protocols, workloads, and default deployment
  parameters available.

Reporting subcommands share two output flags: ``--format {text,json}``
selects human tables or a machine-readable JSON document, and
``--out FILE`` writes the report to a file instead of stdout (``perf``
prints its tables either way and writes its JSON report only to
``--out FILE``).

Examples::

    python -m repro run --protocol chainreaction --workload B --clients 32
    python -m repro run --protocol eventual --sites dc0 dc1 --check   # exits 1: violations
    python -m repro consistency --protocols chainreaction eventual
    python -m repro run --sites dc0 dc1 dc2 --replication-degree 2 --clients 9
    python -m repro perf --protocol --out /tmp/protocol.json
    python -m repro perf --scale --workers 1 2 --out /tmp/parallel.json
    python -m repro perf --partial --out /tmp/partial.json
    python -m repro faults --campaign crash-head --seed 7
    python -m repro faults --campaign crash-head --check-determinism --stability clock
    python -m repro lint --typing
    python -m repro sanitize --protocol chainreaction --invariants --format json
    python -m repro sanitize --stability notices+batch --invariants
    python -m repro sanitize --stability clock --workers 2
    python -m repro sanitize --workers 2
    python -m repro explore --scope smallest --budget 5000
    python -m repro explore --scope split_brain_mint --expect-violation --save bug.json
    python -m repro explore --replay bug.json
    python -m repro explore --replay bug.json --clean-tree
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.api import CAP_TRACING
from repro.baselines.registry import PROTOCOLS, build_store
from repro.checker import analyze_staleness, check_causal, check_session_guarantees
from repro.core.config import STABILITY_PLANES
from repro.metrics import render_table
from repro.workload import (
    WORKLOADS,
    ProbeConfig,
    WorkloadRunner,
    run_causality_probe,
    workload,
)

__all__ = ["main", "build_parser"]


def _placement_overrides(args: argparse.Namespace, out) -> Optional[Dict[str, Any]]:
    """Fold ``--replication-degree`` / ``--shards`` into config
    overrides; ``None`` (+ message) on misuse.

    Degree equal to the site count (or unset) keeps full replication —
    the default the golden trace pins.
    """
    overrides: Dict[str, Any] = {}
    degree = getattr(args, "replication_degree", None)
    shards = getattr(args, "shards", None)
    if degree is None and shards is None:
        return overrides
    if args.protocol not in ("chainreaction", "chain"):
        print(
            "--replication-degree/--shards apply to chainreaction/chain only",
            file=out,
        )
        return None
    if degree is not None:
        if not 1 <= degree <= len(args.sites):
            print(
                f"--replication-degree must be in [1, {len(args.sites)}] "
                f"for {len(args.sites)} site(s)",
                file=out,
            )
            return None
        overrides["replication_degree"] = degree
    if shards is not None:
        if shards < 1:
            print("--shards must be >= 1", file=out)
            return None
        overrides["num_shards"] = shards
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChainReaction (EuroSys'13) reproduction — workload and consistency runner",
    )
    # Shared by every reporting subcommand: how and where the report goes.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report as human-readable text or a JSON document (default: %(default)s)",
    )
    output.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout",
    )
    # Shared by run/sanitize: partial geo-replication placement.
    placement_sel = argparse.ArgumentParser(add_help=False)
    placement_sel.add_argument(
        "--replication-degree", type=int, default=None, metavar="R",
        help="owner DCs per keyspace shard; below the site count each DC "
        "replicates only its owned shards and forwards the rest to the "
        "primary owner (default: every DC owns everything); "
        "chainreaction/chain only — see DESIGN § placement-and-forwarding",
    )
    placement_sel.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="keyspace shard count for --replication-degree (default: 16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", parents=[output, placement_sel],
        help="drive a YCSB workload against one protocol",
    )
    run.add_argument("--protocol", choices=PROTOCOLS, default="chainreaction")
    run.add_argument("--workload", choices=sorted(WORKLOADS), default="B")
    run.add_argument("--clients", type=int, default=16)
    run.add_argument("--sites", nargs="+", default=["dc0"], metavar="SITE")
    run.add_argument("--servers", type=int, default=6, help="servers per site")
    run.add_argument("--chain-length", type=int, default=3, help="R, replicas per key")
    run.add_argument("--ack-k", type=int, default=2, help="k, eager ack depth")
    run.add_argument("--records", type=int, default=100, help="keyspace size")
    run.add_argument("--duration", type=float, default=2.0, help="measured virtual seconds")
    run.add_argument("--warmup", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--check",
        action="store_true",
        help="audit the recorded history (causal + session guarantees); "
        "exit 1 on any violation",
    )
    run.add_argument(
        "--staleness",
        action="store_true",
        help="report read staleness of the recorded history",
    )
    run.add_argument(
        "--trace",
        metavar="KEY",
        help="print the protocol trace timeline for one key after the run",
    )
    run.add_argument(
        "--durable",
        action="store_true",
        help="back servers with the FAWN-KV-style append-only log store",
    )
    run.add_argument(
        "--stability", choices=STABILITY_PLANES, metavar="PLANE",
        help="stabilization plane: notices (default), notices+batch "
        "(PR 4 coalescers + metadata GC), or clock (HLC + stability "
        "vectors); chainreaction/chain only",
    )

    probe = sub.add_parser(
        "consistency", parents=[output],
        help="geo causality probe + anomaly table (experiment E10)",
    )
    probe.add_argument(
        "--protocols", nargs="+", choices=PROTOCOLS, default=list(PROTOCOLS)
    )
    probe.add_argument("--sites", nargs="+", default=["dc0", "dc1"], metavar="SITE")
    probe.add_argument("--pairs", type=int, default=10)
    probe.add_argument("--rounds", type=int, default=15)
    probe.add_argument("--seed", type=int, default=42)

    perf = sub.add_parser(
        "perf", parents=[output],
        help="interim A/B tiers (--protocol, --scale --workers, --partial); "
        "measure everything else with benchmarks/suite/run.py",
    )
    perf.add_argument("--repeats", type=int, default=3, help="runs per arm (best kept)")
    perf.add_argument(
        "--protocol", action="store_true",
        help="run the protocol-plane benchmark (batching + metadata GC on vs off)",
    )
    perf.add_argument(
        "--scale", action="store_true",
        help="with --workers: run the sharded parallel scale tier",
    )
    perf.add_argument(
        "--workers", nargs="+", type=int, default=None, metavar="N",
        help="with --scale: run the sharded parallel tier (one shard per DC) "
        "at each worker count; the first count is the digest/speedup baseline",
    )
    perf.add_argument(
        "--scale-records", type=int, default=None, metavar="KEYS",
        help="override the parallel tier's preloaded keyspace size",
    )
    perf.add_argument(
        "--scale-clients", type=int, default=None, metavar="N",
        help="override the parallel tier's closed-loop client count",
    )
    perf.add_argument(
        "--scale-duration", type=float, default=None, metavar="SECONDS",
        help="override the parallel tier's measured virtual duration",
    )
    perf.add_argument(
        "--scale-sites", nargs="+", default=None, metavar="SITE",
        help="override the parallel tier's datacenter list (one shard each)",
    )
    perf.add_argument(
        "--partial", action="store_true",
        help="run the partial geo-replication benchmark (replication "
        "degree A/B on a hot-shard workload; BENCH_PR10.json's tier)",
    )

    faults = sub.add_parser(
        "faults", parents=[output],
        help="run a fault campaign: seeded crashes/partitions/slow links (docs/FAULTS.md)",
    )
    faults.add_argument(
        "--campaign", metavar="NAME",
        help="built-in campaign to run (see --list)",
    )
    faults.add_argument("--seed", type=int, default=42)
    faults.add_argument(
        "--clients", type=int, default=None,
        help="override the campaign's client count",
    )
    faults.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="override the campaign's YCSB workload",
    )
    faults.add_argument(
        "--list", action="store_true",
        help="list the built-in campaigns and exit",
    )
    faults.add_argument(
        "--check-determinism", action="store_true",
        help="run the campaign twice under one seed and diff the message traces",
    )
    faults.add_argument(
        "--stability", choices=STABILITY_PLANES, metavar="PLANE",
        help="run the campaign on a stabilization plane: notices (default), "
        "notices+batch, or clock",
    )
    faults.add_argument(
        "--sites", nargs="+", metavar="SITE", default=None,
        help="run the campaign on these datacenters instead of its own",
    )

    lint = sub.add_parser(
        "lint", help="determinism/protocol-invariant AST linter (docs/ANALYSIS.md)"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro source tree)",
    )
    lint.add_argument(
        "--typing", action="store_true",
        help="also run the annotation gate (and mypy, when installed)",
    )

    sanitize = sub.add_parser(
        "sanitize", parents=[output, placement_sel],
        help="race detector: run one experiment twice under one seed and diff traces",
    )
    sanitize.add_argument("--protocol", choices=PROTOCOLS, default="chainreaction")
    sanitize.add_argument("--workload", choices=sorted(WORKLOADS), default="B")
    sanitize.add_argument("--clients", type=int, default=4)
    sanitize.add_argument("--sites", nargs="+", default=["dc0"], metavar="SITE")
    sanitize.add_argument("--servers", type=int, default=4, help="servers per site")
    sanitize.add_argument("--chain-length", type=int, default=3)
    sanitize.add_argument("--records", type=int, default=25)
    sanitize.add_argument("--duration", type=float, default=0.4)
    sanitize.add_argument("--warmup", type=float, default=0.1)
    sanitize.add_argument("--seed", type=int, default=42)
    sanitize.add_argument(
        "--invariants", action="store_true",
        help="attach the chain prefix/stability/causal-cut monitors",
    )
    sanitize.add_argument(
        "--stability", choices=STABILITY_PLANES, metavar="PLANE",
        help="sanitize on a stabilization plane: notices (default), "
        "notices+batch, or clock",
    )
    sanitize.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the check through the multi-core sharded engine on N "
        "worker processes (twice-run digest diff plus a workers=1 "
        "reference run); needs a multi-site deployment",
    )

    explore = sub.add_parser(
        "explore", parents=[output],
        help="bounded schedule explorer: enumerate delivery/fault interleavings "
        "of a small scope and check invariants at every terminal state",
    )
    explore.add_argument(
        "--scope", default="smallest", metavar="NAME",
        help="scenario to explore (see --list; default: %(default)s)",
    )
    explore.add_argument(
        "--list", action="store_true",
        help="list the built-in scenarios and exit",
    )
    explore.add_argument(
        "--clean", action="store_true",
        help="strip the scenario's seeded protocol mutation and explore the "
        "unmutated tree (must pass clean)",
    )
    explore.add_argument(
        "--stability", choices=STABILITY_PLANES, metavar="PLANE",
        help="explore the scenario on a stabilization plane: notices, "
        "notices+batch, or clock (default: the scenario's own)",
    )
    explore.add_argument(
        "--budget", type=int, default=20000,
        help="cap on executed schedules + pruned prefixes (default: %(default)s)",
    )
    explore.add_argument(
        "--naive", action="store_true",
        help="full enumeration without partial-order reduction",
    )
    explore.add_argument(
        "--compare-naive", action="store_true",
        help="after the DPOR pass, re-enumerate naively under the same budget "
        "and report the pruning ratio",
    )
    explore.add_argument(
        "--save", metavar="FILE", default=None,
        help="on violation, minimize and save the counterexample schedule to FILE",
    )
    explore.add_argument(
        "--no-minimize", action="store_true",
        help="with --save: persist the counterexample as found, skipping "
        "delta-debugging minimization",
    )
    explore.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a saved counterexample schedule instead of exploring",
    )
    explore.add_argument(
        "--clean-tree", action="store_true",
        help="with --replay: strip the schedule's mutations first and verify "
        "the violation no longer reproduces on the fixed tree",
    )
    explore.add_argument(
        "--expect-violation", action="store_true",
        help="proving-ground mode: exit 0 iff a violation IS found",
    )

    sub.add_parser("info", parents=[output], help="list protocols, workloads, and defaults")
    return parser


def _emit(args: argparse.Namespace, out, text: str, payload: Dict[str, Any]) -> None:
    """Deliver one report honoring the shared --format / --out flags."""
    rendered = (
        json.dumps(payload, indent=2, sort_keys=True, default=str)
        if args.format == "json"
        else text
    )
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"report written to {args.out}", file=out)
    else:
        print(rendered, file=out)


def _progress(args: argparse.Namespace, out, text: str) -> None:
    """A banner before a long step: on ``out`` beside a text report, on
    stderr under ``--format json``, so stdout holds only the document."""
    print(text, file=sys.stderr if args.format == "json" else out)


def _cmd_run(args: argparse.Namespace, out) -> int:
    overrides: Dict[str, Any] = {}
    if args.durable:
        if args.protocol not in ("chainreaction", "chain"):
            print("--durable applies to chainreaction/chain only", file=out)
            return 2
        overrides["durable_storage"] = True
    if args.stability is not None:
        if args.protocol not in ("chainreaction", "chain"):
            print("--stability applies to chainreaction/chain only", file=out)
            return 2
        overrides["stability"] = args.stability
    replication = _placement_overrides(args, out)
    if replication is None:
        return 2
    overrides.update(replication)
    store = build_store(
        args.protocol,
        sites=tuple(args.sites),
        servers_per_site=args.servers,
        chain_length=args.chain_length,
        ack_k=args.ack_k,
        seed=args.seed,
        overrides=overrides or None,
    )
    tracer = None
    if args.trace:
        if CAP_TRACING not in store.capabilities:
            print(
                f"--trace needs CAP_TRACING, which {args.protocol!r} does not "
                "advertise (chainreaction/chain only)",
                file=out,
            )
            return 2
        tracer = store.attach_tracer()
    spec = workload(args.workload, record_count=args.records)
    runner = WorkloadRunner(
        store,
        spec,
        n_clients=args.clients,
        duration=args.duration,
        warmup=args.warmup,
        record_history=args.check or args.staleness,
    )
    _progress(
        args, out,
        f"running {args.protocol} / workload {args.workload} / {args.clients} clients "
        f"on {len(args.sites)} site(s) ...",
    )
    result = runner.run()
    payload: Dict[str, Any] = result.summary_row()
    payload["ops_completed"] = result.ops_completed
    payload["metadata_bytes_mean"] = result.metadata_bytes.mean()
    rows = [
        ("throughput (ops/s)", result.throughput),
        ("operations", result.ops_completed),
        ("errors", result.errors),
        ("GET p50 / p99 (ms)",
         f"{result.get_latency.percentile(50)*1000:.2f} / {result.get_latency.percentile(99)*1000:.2f}"),
        ("PUT p50 / p99 (ms)",
         f"{result.put_latency.percentile(50)*1000:.2f} / {result.put_latency.percentile(99)*1000:.2f}"),
        ("client metadata mean (B)", result.metadata_bytes.mean()),
    ]
    sections = [render_table(["metric", "value"], rows, title="results")]

    violation_count = 0
    if args.check:
        causal = check_causal(result.history)
        sessions = check_session_guarantees(result.history)
        check_rows = [("causal", len(causal))] + [
            (name, len(violations)) for name, violations in sessions.items()
        ]
        payload["audit"] = {name: count for name, count in check_rows}
        violation_count = sum(count for _, count in check_rows)
        sections.append(
            render_table(["guarantee", "violations"], check_rows, title="consistency audit")
        )
    if tracer is not None:
        timeline = tracer.format(key=args.trace, last=40) or "  (no events)"
        payload["trace"] = {"key": args.trace, "timeline": timeline.splitlines()}
        sections.append(f"trace for key {args.trace!r} (last 40 events):\n{timeline}")
    if args.staleness:
        report = analyze_staleness(result.history)
        summary = report.summary()
        payload["staleness"] = summary
        sections.append(
            render_table(
                ["metric", "value"],
                [
                    ("reads analysed", summary["reads"]),
                    ("fresh reads", f"{summary['fresh_fraction']*100:.1f}%"),
                    ("version lag p50 / p99",
                     f"{summary['version_lag_p50']:.1f} / {summary['version_lag_p99']:.1f}"),
                    ("time lag p99 (ms)", summary["time_lag_p99_ms"]),
                ],
                title="staleness",
            )
        )
    _emit(args, out, "\n\n".join(sections), payload)
    return 1 if violation_count else 0


def _cmd_consistency(args: argparse.Namespace, out) -> int:
    rows = []
    for protocol in args.protocols:
        store = build_store(
            protocol,
            sites=tuple(args.sites),
            servers_per_site=6,
            chain_length=3,
            ack_k=2,
            seed=args.seed,
            write_quorum=1,
            read_quorum=1,
        )
        history = run_causality_probe(
            store, ProbeConfig(n_pairs=args.pairs, rounds=args.rounds)
        )
        causal = check_causal(history)
        sessions = check_session_guarantees(history)
        rows.append(
            (
                protocol,
                len(history),
                len(causal),
                len(sessions["read-your-writes"]),
                len(sessions["monotonic-reads"]),
            )
        )
    text = render_table(
        ["protocol", "ops", "causal", "RYW", "MR"],
        rows,
        title=f"consistency anomalies ({len(args.sites)} sites)",
    )
    payload = {
        "sites": list(args.sites),
        "protocols": [
            {"protocol": p, "ops": ops, "causal": c, "read_your_writes": ryw,
             "monotonic_reads": mr}
            for p, ops, c, ryw, mr in rows
        ],
    }
    _emit(args, out, text, payload)
    return 0


def _finish_perf(
    args: argparse.Namespace, out, title: str, rows: List[Any], report: Dict[str, Any]
) -> None:
    """Print one tier's table (or ``--format json``) and write its JSON
    report where ``--out`` says, and only there: defaulting to
    ``BENCH_PR*.json`` in cwd silently overwrote the committed reports."""
    document = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        Path(args.out).write_text(document + "\n")
        written = f"report written to {args.out}"
    else:
        written = "report not written (pass --out FILE to keep it)"
    if args.format == "json":
        print(document, file=out)
    else:
        table = render_table(["metric", "value"], rows, title=title)
        print(f"{table}\n\n{written}", file=out)


def _cmd_perf_protocol(args: argparse.Namespace, out) -> int:
    from repro.perf.protocol import bench_protocol_plane

    print(
        "running protocol-plane benchmark (batching + metadata GC on vs off, "
        f"{args.repeats} repeats) ...",
        file=out,
    )
    report = bench_protocol_plane(repeats=args.repeats)
    unbatched, batched = report["unbatched"], report["batched"]
    rows = [
        ("ops/wall-s unbatched / batched",
         f"{unbatched['sim_ops_per_wall_sec']:,.0f} / "
         f"{batched['sim_ops_per_wall_sec']:,.0f} "
         f"({report['ops_per_wall_sec_speedup']:.2f}x)"),
        ("stability msgs unbatched / batched",
         f"{unbatched['stability_messages']:,} / "
         f"{batched['stability_messages']:,} "
         f"({report['stability_message_reduction']:.1f}x)"),
        ("global-stability msg reduction",
         f"{report['global_stability_message_reduction']:.1f}x"),
        ("stable-map entries unbatched / batched",
         f"{unbatched['metadata']['stable_map_entries']:,} / "
         f"{batched['metadata']['stable_map_entries']:,}"),
    ]
    _finish_perf(args, out, "perf --protocol", rows, report)
    return 0


def _cmd_perf_parallel(args: argparse.Namespace, out) -> int:
    from repro.perf.parallel import bench_parallel_scale

    overrides = {}
    if args.scale_records is not None:
        overrides["record_count"] = args.scale_records
    if args.scale_clients is not None:
        overrides["n_clients"] = args.scale_clients
    if args.scale_duration is not None:
        overrides["duration"] = args.scale_duration
    if args.scale_sites is not None:
        overrides["sites"] = tuple(args.scale_sites)
    print(
        f"running sharded scale tier at workers={args.workers} "
        "(one shard per DC, conservative lookahead) ...",
        file=out,
    )
    report = bench_parallel_scale(workers_list=args.workers, overrides=overrides)
    rows = [
        ("shards (DCs)", str(report["shards"])),
        ("lookahead", f"{report['lookahead_s'] * 1000:.2f} ms"),
        ("host cpus", str(report["host_cpus"])),
        ("trace digests match", str(report["digests_match"])),
        ("trace digest", report["trace_digest"][:16] + "…"),
    ]
    for run in report["runs"]:
        w = run["workers_used"]
        rows.append(
            (
                f"workers={w}",
                f"{run['ops_per_wall_sec']:,.0f} ops/wall-s "
                f"({run['wall_seconds']:.1f}s wall, "
                f"{run['speedup_vs_first']:.2f}x, {run['rounds']} rounds)",
            )
        )
    _finish_perf(args, out, "perf --scale --workers", rows, report)
    # Digest equality is the engine's contract; make its violation a
    # non-zero exit so CI trips without parsing the report.
    return 0 if report["digests_match"] else 1


def _cmd_perf_partial(args: argparse.Namespace, out) -> int:
    from repro.perf.partial import bench_partial_replication

    print(
        "running partial geo-replication benchmark (replication degree "
        f"A/B, {args.repeats} repeats) ...",
        file=out,
    )
    report = bench_partial_replication(repeats=args.repeats)
    rows = []
    for arm in report["arms"]:
        census = arm["records_per_site"]
        rows.append(
            (
                arm["arm"],
                f"{arm['ops_per_wall_sec']:,.0f} ops/wall-s, "
                f"{arm['shipping_bytes_per_key']:,.0f} ship B/key, "
                f"{sum(census.values())} records "
                f"({max(census.values())} max/DC)",
            )
        )
    rows.append(
        ("shipping bytes/key (r=2 vs full)",
         f"{report['shipping_bytes_per_key_ratio_r2']:.2f}x"),
    )
    rows.append(
        ("record census reduction (r=2)", f"{report['census_reduction_r2']:.0%}"),
    )
    rows.append(
        ("remote-get p50 (r=2)", f"{report['remote_get_p50_ms_r2']:.1f} ms"),
    )
    _finish_perf(args, out, "perf --partial", rows, report)
    return 0


def _cmd_perf(args: argparse.Namespace, out) -> int:
    if args.protocol:
        return _cmd_perf_protocol(args, out)
    if args.partial:
        return _cmd_perf_partial(args, out)
    if args.scale and args.workers:
        return _cmd_perf_parallel(args, out)
    print(
        "perf: pick a tier — --protocol, --scale --workers N..., or --partial. "
        "Everything else (kernel, memory layout, stabilization plane) "
        "is measured by the standing benchmark: "
        "python3 benchmarks/suite/run.py --workload W --seed 1234 "
        "(see benchmarks/suite/README.md)",
        file=out,
    )
    return 2


def _cmd_faults(args: argparse.Namespace, out) -> int:
    from repro.faults import CAMPAIGNS, campaign, run_campaign, sanitize_campaign

    if args.list:
        rows = [(name, CAMPAIGNS[name].description) for name in sorted(CAMPAIGNS)]
        text = render_table(["campaign", "description"], rows, title="fault campaigns")
        payload = {"campaigns": [{"name": n, "description": d} for n, d in rows]}
        _emit(args, out, text, payload)
        return 0
    if not args.campaign:
        print("faults: --campaign NAME is required (or --list)", file=out)
        return 2
    spec = campaign(args.campaign)
    updates: Dict[str, Any] = {}
    if args.clients is not None:
        updates["clients"] = args.clients
    if args.workload is not None:
        updates["workload_name"] = args.workload
    if args.stability is not None:
        updates["overrides"] = {**(spec.overrides or {}), "stability": args.stability}
    if args.sites is not None:
        updates["sites"] = tuple(args.sites)
    if updates:
        spec = spec.with_updates(**updates)

    if args.check_determinism:
        print(
            f"campaign {spec.name!r}: two runs under seed {args.seed}, diffing traces ...",
            file=out,
        )
        report = sanitize_campaign(spec, seed=args.seed)
        payload = {
            "campaign": spec.name,
            "seed": args.seed,
            "trace_length": report.trace_length,
            "events_processed": list(report.events_processed),
            "deterministic": report.divergence is None,
            "clean": report.clean,
        }
        _emit(args, out, report.format(), payload)
        return 0 if report.clean else 1

    _progress(args, out, f"running campaign {spec.name!r} under seed {args.seed} ...")
    result = run_campaign(spec, seed=args.seed)
    _emit(args, out, result.format(), result.to_report())
    return 0 if result.clean else 1


def _cmd_lint(args: argparse.Namespace, out) -> int:
    from repro.analysis import check_annotations, run_lint, run_mypy

    paths = [Path(p) for p in args.paths] or None
    violations = run_lint(paths)
    for violation in violations:
        print(violation.format(), file=out)
    failed = bool(violations)
    print(f"lint: {len(violations)} violation(s)", file=out)
    if args.typing:
        annotations = check_annotations(paths)
        for violation in annotations:
            print(violation.format(), file=out)
        print(f"typing gate: {len(annotations)} missing annotation(s)", file=out)
        failed = failed or bool(annotations)
        mypy = run_mypy()
        if mypy.available:
            if mypy.output.strip():
                print(mypy.output, file=out)
            print(f"mypy: exit {mypy.returncode}", file=out)
        else:
            print(mypy.output, file=out)
        failed = failed or not mypy.clean
    return 1 if failed else 0


def _cmd_sanitize_sharded(args: argparse.Namespace, out, overrides) -> int:
    from repro.analysis import sanitize_sharded

    sites = tuple(args.sites)
    if len(sites) < 2:
        # One shard per site; a single site degenerates to the serial
        # path, which the plain sanitizer already covers better.
        sites = ("dc0", "dc1")
    _progress(
        args, out,
        f"sanitizing {args.protocol} on the sharded engine "
        f"(workers={args.workers}, sites={len(sites)}): two runs under "
        f"seed {args.seed}, plus a workers=1 reference ...",
    )
    report = sanitize_sharded(
        args.protocol,
        seed=args.seed,
        workload_name=args.workload,
        clients=args.clients,
        duration=args.duration,
        warmup=args.warmup,
        sites=sites,
        servers_per_site=args.servers,
        chain_length=args.chain_length,
        records=args.records,
        workers=args.workers,
        overrides=overrides,
    )
    payload = {
        "protocol": report.protocol,
        "seed": report.seed,
        "workers": report.workers,
        "sites": list(report.sites),
        "rounds": report.rounds,
        "digests": list(report.digests),
        "serial_digest": report.serial_digest,
        "events_processed": list(report.events_processed),
        "twice_run_clean": report.twice_run_clean,
        "worker_count_clean": report.worker_count_clean,
        "clean": report.clean,
    }
    _emit(args, out, report.format(), payload)
    return 0 if report.clean else 1


def _cmd_sanitize(args: argparse.Namespace, out) -> int:
    from repro.analysis import sanitize_run

    overrides: Optional[Dict[str, Any]] = None
    if args.stability is not None:
        if args.protocol not in ("chainreaction", "chain"):
            print("--stability applies to chainreaction/chain only", file=out)
            return 2
        overrides = {"stability": args.stability}
    replication = _placement_overrides(args, out)
    if replication is None:
        return 2
    if replication:
        overrides = {**(overrides or {}), **replication}
    if args.workers is not None:
        if args.workers < 1:
            print("sanitize: --workers must be >= 1", file=out)
            return 2
        if args.protocol not in ("chainreaction", "chain"):
            print("--workers applies to chainreaction/chain only", file=out)
            return 2
        return _cmd_sanitize_sharded(args, out, overrides)
    _progress(
        args, out,
        f"sanitizing {args.protocol} / workload {args.workload}: "
        f"two runs under seed {args.seed} ...",
    )
    report = sanitize_run(
        args.protocol,
        seed=args.seed,
        workload_name=args.workload,
        clients=args.clients,
        duration=args.duration,
        warmup=args.warmup,
        sites=tuple(args.sites),
        servers_per_site=args.servers,
        chain_length=args.chain_length,
        records=args.records,
        check_invariants=args.invariants,
        overrides=overrides,
    )
    payload = {
        "protocol": report.protocol,
        "seed": report.seed,
        "trace_length": report.trace_length,
        "events_processed": list(report.events_processed),
        "deterministic": report.divergence is None,
        "clean": report.clean,
    }
    _emit(args, out, report.format(), payload)
    return 0 if report.clean else 1


def _cmd_explore_replay(args: argparse.Namespace, out) -> int:
    from repro.analysis.explore import ExploreError, load_schedule, replay_schedule

    try:
        schedule = load_schedule(args.replay)
    except ExploreError as exc:
        print(f"cannot replay {args.replay}: {exc}", file=out)
        return 2
    mode = "clean tree (mutations stripped, guided)" if args.clean_tree else "strict"
    print(
        f"replaying {args.replay}: scope {schedule.scope.name!r}, "
        f"{len(schedule.trace)} decisions, {mode} ...",
        file=out,
    )
    result = replay_schedule(
        schedule, strict=not args.clean_tree, on_clean_tree=args.clean_tree
    )
    lines = []
    if args.clean_tree:
        # On the fixed tree the recorded violation must NOT recur.
        ok = not result.violations and not result.reproduced
        lines.append(
            "clean-tree replay: "
            + ("no violation (bug is fixed)" if ok else "VIOLATION STILL PRESENT")
        )
    else:
        ok = result.reproduced
        lines.append(
            "strict replay: "
            + (
                "violation reproduced bit-for-bit"
                if ok
                else "DID NOT REPRODUCE (signature mismatch)"
            )
        )
    for violation in result.violations:
        lines.append(f"  {violation}")
    payload = {
        "file": args.replay,
        "scope": schedule.scope.name,
        "decisions": len(schedule.trace),
        "clean_tree": args.clean_tree,
        "reproduced": result.reproduced,
        "violations": [list(v.as_tuple()) for v in result.violations],
        "ok": ok,
    }
    _emit(args, out, "\n".join(lines), payload)
    return 0 if ok else 1


def _cmd_explore(args: argparse.Namespace, out) -> int:
    import dataclasses as _dc

    from repro.analysis.explore import (
        explore_scope,
        save_counterexample,
        scenario,
        scenario_names,
    )

    if args.list:
        rows = []
        for name in scenario_names():
            scope = scenario(name)
            rows.append(
                (
                    name,
                    ",".join(scope.mutations) or "(none — clean scope)",
                    f"{len(scope.ops)} ops",
                )
            )
        text = render_table(
            ["scenario", "seeded mutation", "workload"], rows, title="explore scenarios"
        )
        payload = {
            "scenarios": [
                {"name": n, "mutations": m, "ops": o} for n, m, o in rows
            ]
        }
        _emit(args, out, text, payload)
        return 0
    if args.replay:
        return _cmd_explore_replay(args, out)

    scope = scenario(args.scope)
    if args.clean:
        scope = scope.without_mutations()
    if args.stability is not None:
        scope = scope.on_plane(args.stability)
    mode = "naive" if args.naive else "dpor"
    _progress(
        args, out,
        f"exploring scope {scope.name!r} "
        f"(mutations={list(scope.mutations) or 'none'}, mode={mode}, "
        f"budget={args.budget}) ...",
    )
    report = explore_scope(scope, budget=args.budget, mode=mode)
    if args.compare_naive and not args.naive:
        print("re-enumerating naively for the pruning ratio ...", file=out)
        naive = explore_scope(scope, budget=args.budget, mode="naive")
        report = _dc.replace(
            report,
            naive_schedules=naive.schedules + naive.pruned,
            naive_complete=naive.complete,
        )

    saved_to = None
    saved_decisions = None
    if args.save and report.counterexample is not None:
        schedule = save_counterexample(
            args.save, report, minimize=not args.no_minimize
        )
        saved_to = args.save
        saved_decisions = len(schedule.trace)

    text = report.summary()
    if saved_to:
        text += (
            f"\n  counterexample saved to {saved_to} "
            f"({saved_decisions} decisions"
            + (", minimized)" if not args.no_minimize else ")")
        )
    payload: Dict[str, Any] = {
        "scope": scope.name,
        "mutations": list(scope.mutations),
        "mode": report.mode,
        "budget": args.budget,
        "schedules": report.schedules,
        "pruned_prefixes": report.pruned,
        "decisions": report.decisions,
        "max_depth": report.max_depth,
        "complete": report.complete,
        "elapsed_s": report.elapsed,
        "schedules_per_s": report.schedules_per_s,
        "clean": report.clean,
        "naive_schedules": report.naive_schedules,
        "naive_complete": report.naive_complete,
        "pruning_ratio": report.pruning_ratio,
        "violations": [
            list(v.as_tuple()) for v in report.counterexample.violations
        ]
        if report.counterexample
        else [],
        "saved": saved_to,
        "saved_decisions": saved_decisions,
    }
    _emit(args, out, text, payload)
    if args.expect_violation:
        return 0 if not report.clean else 1
    return 0 if report.clean else 1


def _cmd_info(args: argparse.Namespace, out) -> int:
    lines = [
        "protocols : " + ", ".join(PROTOCOLS),
        "workloads : " + ", ".join(
            f"{name} ({int(spec.read_proportion*100)}% read)"
            for name, spec in sorted(WORKLOADS.items())
        ),
        "defaults  : 6 servers/site, R=3, k=2, LAN 0.3ms, WAN 40ms",
        "see also  : pytest benchmarks/ -s  (experiments E1-E12)",
    ]
    payload = {
        "protocols": list(PROTOCOLS),
        "workloads": {
            name: {"read_proportion": spec.read_proportion}
            for name, spec in sorted(WORKLOADS.items())
        },
        "defaults": {"servers_per_site": 6, "chain_length": 3, "ack_k": 2},
    }
    _emit(args, out, "\n".join(lines), payload)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "consistency":
        return _cmd_consistency(args, out)
    if args.command == "perf":
        return _cmd_perf(args, out)
    if args.command == "faults":
        return _cmd_faults(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "sanitize":
        return _cmd_sanitize(args, out)
    if args.command == "explore":
        return _cmd_explore(args, out)
    return _cmd_info(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
