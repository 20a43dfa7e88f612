"""Tests for the command-line interface."""

import argparse
import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
SRC_ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "mysql"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "chainreaction"
        assert args.workload == "B"
        assert args.clients == 16


class TestInfo:
    def test_lists_protocols_and_workloads(self):
        code, output = run_cli("info")
        assert code == 0
        assert "chainreaction" in output
        assert "A (50% read)" in output


class TestRun:
    def test_basic_run_prints_summary(self):
        code, output = run_cli(
            "run", "--clients", "4", "--duration", "0.3", "--warmup", "0.1",
            "--records", "20",
        )
        assert code == 0
        assert "throughput (ops/s)" in output
        assert "errors" in output

    def test_run_with_audit_and_staleness(self):
        code, output = run_cli(
            "run", "--clients", "4", "--duration", "0.3", "--warmup", "0.1",
            "--records", "20", "--check", "--staleness",
        )
        assert code == 0
        assert "consistency audit" in output
        assert "causal" in output
        assert "staleness" in output

    def test_check_exits_zero_on_a_clean_audit(self):
        code, output = run_cli(
            "run", "--sites", "dc0", "dc1", "--clients", "4", "--duration", "0.3",
            "--warmup", "0.1", "--records", "20", "--check",
        )
        assert code == 0
        assert "consistency audit" in output

    def test_check_exits_one_on_any_violation(self):
        # Eventual consistency violates causality across two DCs; the
        # audit table is still printed before the failing exit.
        code, output = run_cli(
            "run", "--protocol", "eventual", "--sites", "dc0", "dc1",
            "--clients", "4", "--duration", "0.3", "--warmup", "0.1",
            "--records", "20", "--check",
        )
        assert code == 1
        assert "consistency audit" in output
        causal = next(line for line in output.splitlines() if line.split()[:1] == ["causal"])
        assert int(causal.split()[1]) > 0

    def test_run_other_protocol_and_sites(self):
        code, output = run_cli(
            "run", "--protocol", "eventual", "--sites", "dc0", "dc1",
            "--clients", "4", "--duration", "0.3", "--warmup", "0.1",
            "--records", "20",
        )
        assert code == 0
        assert "throughput" in output


class TestConsistency:
    def test_anomaly_table(self):
        code, output = run_cli(
            "consistency", "--protocols", "chainreaction", "eventual",
            "--pairs", "4", "--rounds", "5",
        )
        assert code == 0
        assert "chainreaction" in output
        assert "eventual" in output
        assert "causal" in output


class TestTraceAndDurable:
    def test_trace_prints_timeline(self):
        code, output = run_cli(
            "run", "--clients", "2", "--duration", "0.2", "--warmup", "0.05",
            "--records", "5", "--trace", "user00000001",
        )
        assert code == 0
        assert "trace for key" in output
        assert "apply-head" in output or "(no events)" in output

    def test_durable_flag_accepted_for_chainreaction(self):
        code, output = run_cli(
            "run", "--clients", "2", "--duration", "0.2", "--warmup", "0.05",
            "--records", "5", "--durable",
        )
        assert code == 0

    def test_durable_rejected_for_baselines(self):
        code, output = run_cli("run", "--protocol", "eventual", "--durable")
        assert code == 2
        assert "chainreaction" in output

    def test_trace_rejected_without_capability(self):
        code, output = run_cli(
            "run", "--protocol", "eventual", "--trace", "user00000001",
        )
        assert code == 2
        assert "CAP_TRACING" in output


class TestOutputFlags:
    def test_run_json_format(self, capsys):
        code, output = run_cli(
            "run", "--clients", "2", "--duration", "0.2", "--warmup", "0.05",
            "--records", "10", "--format", "json",
        )
        assert code == 0
        # stdout is the JSON document alone; the progress line went to stderr
        doc = json.loads(output)
        assert capsys.readouterr().err.startswith("running chainreaction")
        assert doc["protocol"] == "chainreaction"
        assert "throughput_ops_s" in doc

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, output = run_cli(
            "consistency", "--protocols", "chainreaction", "--pairs", "2",
            "--rounds", "3", "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert f"report written to {path}" in output
        doc = json.loads(path.read_text())
        assert doc["protocols"][0]["protocol"] == "chainreaction"
        assert doc["protocols"][0]["causal"] == 0

    def test_info_json(self):
        code, output = run_cli("info", "--format", "json")
        assert code == 0
        doc = json.loads(output)
        assert "chainreaction" in doc["protocols"]


class TestPerfOutput:
    """``perf`` used to default to BENCH_PR*.json in cwd, silently
    overwriting the committed reports; now only ``--out`` writes."""

    TINY_PARALLEL = (
        "perf", "--scale", "--workers", "1", "2", "--scale-records", "200",
        "--scale-clients", "4", "--scale-duration", "0.1",
        "--scale-sites", "dc0", "dc1",
    )

    def test_parallel_tier_writes_only_where_out_says(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = run_cli(*self.TINY_PARALLEL)
        assert code == 0
        assert "trace digests match" in output
        assert "report not written" in output
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "mine.json"
        code, output = run_cli(*self.TINY_PARALLEL, "--out", str(path))
        assert code == 0
        assert f"report written to {path}" in output
        assert json.loads(path.read_text())["digests_match"] is True
        assert [p.name for p in tmp_path.iterdir()] == ["mine.json"]

    def test_parallel_tier_digest_mismatch_exits_nonzero(self, monkeypatch):
        import repro.perf.parallel

        real = repro.perf.parallel.bench_parallel_scale

        def diverged(**kwargs):
            return dict(real(**kwargs), digests_match=False)

        monkeypatch.setattr(repro.perf.parallel, "bench_parallel_scale", diverged)
        code, output = run_cli(*self.TINY_PARALLEL)
        assert code == 1
        assert "trace digests match" in output and "False" in output

    def test_protocol_tier_without_out_writes_nothing(self, tmp_path, monkeypatch):
        import repro.perf.protocol

        arm = {
            "sim_ops_per_wall_sec": 1.0, "stability_messages": 10,
            "metadata": {"stable_map_entries": 5},
        }
        report = {
            "unbatched": arm, "batched": arm, "ops_per_wall_sec_speedup": 1.0,
            "stability_message_reduction": 1.0,
            "global_stability_message_reduction": 1.0,
        }
        monkeypatch.setattr(
            repro.perf.protocol, "bench_protocol_plane", lambda repeats: report
        )
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("perf", "--protocol")
        assert code == 0
        assert "stability msgs unbatched / batched" in output
        assert "report not written" in output
        assert list(tmp_path.iterdir()) == []
        code, output = run_cli("perf", "--protocol", "--out", "p.json")
        assert code == 0
        assert json.loads((tmp_path / "p.json").read_text()) == report

    def test_partial_tier_without_out_writes_nothing(self, tmp_path, monkeypatch):
        import repro.perf.partial

        arm = {
            "arm": "full", "ops_per_wall_sec": 1.0, "shipping_bytes_per_key": 1.0,
            "records_per_site": {"dc0": 1},
        }
        report = {
            "arms": [arm], "shipping_bytes_per_key_ratio_r2": 0.5,
            "census_reduction_r2": 0.3, "remote_get_p50_ms_r2": 80.0,
        }
        monkeypatch.setattr(
            repro.perf.partial, "bench_partial_replication", lambda repeats: report
        )
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("perf", "--partial")
        assert code == 0
        assert "report not written" in output
        assert list(tmp_path.iterdir()) == []
        code, output = run_cli("perf", "--partial", "--out", "p.json")
        assert code == 0
        assert json.loads((tmp_path / "p.json").read_text()) == report


class TestPerfRetiredTiers:
    """The micro / memory-layout / stabilization-plane tiers are measured
    by the standing benchmark now; the kernel selector and the ``--batch``
    alias are gone outright."""

    @pytest.mark.parametrize("argv", [("perf",), ("perf", "--scale")])
    def test_without_a_tier_points_at_the_suite(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = run_cli(*argv)
        assert code == 2
        assert "benchmarks/suite/run.py" in output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag",
        [
            ("--events", "500"), ("--skip-e2e",), ("--sweep",),
            ("--sweep-workers", "2"), ("--profile",), ("--stability", "clock"),
            ("--kernel",),
        ],
    )
    def test_removed_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["perf", *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [("--kernel", "pure"), ("--batch",)])
    def test_kernel_and_batch_rejected_on_every_subcommand(self, flag, capsys):
        parser = build_parser()
        subcommands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert {"run", "faults", "sanitize"} <= set(subcommands)
        for name in subcommands:
            parser.parse_args([name])  # bare is fine, so the flag is what fails
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, *flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestPerfSmokeScript:
    def test_without_output_writes_nothing(self, tmp_path, monkeypatch):
        script = REPO / "scripts" / "perf_smoke.py"
        committed = tmp_path / "BENCH_PR1.json"
        committed.write_text("committed\n")
        result = subprocess.run(
            [sys.executable, str(script), "--skip-protocol", "--skip-parallel",
             "--repeats", "1"],
            cwd=tmp_path, env=SRC_ENV, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "report not written" in result.stdout
        assert committed.read_text() == "committed\n"
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_PR1.json"]
        out = tmp_path / "smoke.json"
        result = subprocess.run(
            [sys.executable, str(script), "--skip-protocol", "--skip-parallel",
             "--repeats", "1", "--output", str(out)],
            cwd=tmp_path, env=SRC_ENV, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert set(json.loads(out.read_text())) == {"partial_replication"}


class TestPerfLayering:
    """``repro.perf`` is a leaf: only the ``perf`` handler reaches it."""

    def test_product_paths_do_not_import_the_perf_package(self):
        probe = (
            "import sys; from repro.cli import main; "
            "code = main(['run', '--stability', 'notices+batch', '--sites', "
            "'dc0', 'dc1', '--clients', '2', '--duration', '0.2', "
            "'--warmup', '0.05', '--records', '10']); "
            "leaked = sorted(m for m in sys.modules if m.startswith('repro.perf')); "
            "sys.exit(code or (3 if leaked else 0))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_only_the_cli_imports_repro_perf(self):
        src = REPO / "src" / "repro"
        importers = set()
        for path in src.rglob("*.py"):
            rel = path.relative_to(src)
            if rel.parts[0] == "perf":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                if any(n == "repro.perf" or n.startswith("repro.perf.") for n in names):
                    importers.add(str(rel))
        assert importers == {"cli.py"}


class TestFaults:
    def test_list_campaigns(self):
        code, output = run_cli("faults", "--list")
        assert code == 0
        assert "crash-head" in output
        assert "slow-link" in output

    def test_campaign_required(self):
        code, output = run_cli("faults")
        assert code == 2
        assert "--campaign" in output

    def test_unknown_campaign_raises(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown campaign"):
            run_cli("faults", "--campaign", "meteor-strike")

    def test_sites_runs_a_campaign_on_other_datacenters(self, tmp_path):
        path = tmp_path / "campaign.json"
        code, _output = run_cli(
            "faults", "--campaign", "crash-tail", "--sites", "dc0", "dc1", "--seed", "42",
            "--clients", "4", "--format", "json", "--out", str(path),
        )
        doc = json.loads(path.read_text())
        assert (doc["campaign"], doc["sites"]) == ("crash-tail", ["dc0", "dc1"])
        assert code == 0 and doc["clean"] is True

    def test_crash_head_campaign_clean(self, tmp_path):
        path = tmp_path / "campaign.json"
        code, output = run_cli(
            "faults", "--campaign", "crash-head", "--seed", "7",
            "--clients", "4", "--format", "json", "--out", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["campaign"] == "crash-head"
        assert doc["clean"] is True
        assert doc["outcomes"]["unresolved"] == 0
        assert doc["causal_violations"] == 0
        phases = {p["phase"]: p for p in doc["phases"]}
        assert set(phases) == {"before", "during", "after"}
