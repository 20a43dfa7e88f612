"""Tests for the clock stabilization plane (PR 8): HLC semantics, the
``StabilityPlane`` config/capability surface, determinism of the clock
plane under the single- and multi-process engines, causal parity with
the notices plane, the dep-table HLC column, and the CLI's unified
``--stability`` flag."""

import io
import pickle

import pytest

from repro.api import CAP_CLOCK_STABILITY
from repro.cli import main
from repro.core.config import ChainReactionConfig
from repro.core.deptable import DepEntry, DepTable
from repro.errors import ConfigError
from repro.sim.hlc import NO_HLC, HLCStamp, HybridClock, hlc_or_none, just_below


class _FakeSim:
    """Minimal ``SimClock`` protocol: just a ``now`` attribute."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

GEO = dict(
    sites=("dc0", "dc1"),
    servers_per_site=3,
    chain_length=2,
    records=10,
    clients=2,
    duration=0.3,
    warmup=0.05,
)

CLOCK = {"stability": "clock"}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestHLC:
    def test_total_order_physical_then_logical_then_origin(self):
        a = HLCStamp(10, 0, "dc0")
        b = HLCStamp(10, 1, "dc0")
        c = HLCStamp(11, 0, "dc0")
        d = HLCStamp(10, 0, "dc1")
        assert a < b < c
        assert a < d < b  # origin breaks exact ties only
        assert sorted([c, d, b, a]) == [a, d, b, c]

    def test_just_below_is_a_conservative_predecessor(self):
        stamp = HLCStamp(10, 1, "dc0")
        below = just_below(stamp)
        assert below < stamp
        # at or above every stamp with a smaller (physical, logical)
        assert below > HLCStamp(10, 0, "dc9")
        assert just_below(below) == below  # already empty-origin: fixpoint

    def test_stamp_monotone_and_observe_merges(self):
        clock = HybridClock(_FakeSim(), "dc0")
        first = clock.stamp()
        second = clock.stamp()
        assert first < second
        remote = HLCStamp(second.physical + 500, 3, "dc1")
        clock.observe(remote)
        assert clock.stamp() > remote

    def test_peek_does_not_advance(self):
        clock = HybridClock(_FakeSim(), "dc0")
        probe = clock.peek()
        assert clock.stamp() > probe
        assert clock.peek() >= probe

    def test_no_hlc_is_falsy_zero_bytes_and_pickles_to_itself(self):
        assert not NO_HLC
        assert NO_HLC.size_bytes() == 0
        assert pickle.loads(pickle.dumps(NO_HLC)) is NO_HLC
        assert hlc_or_none(NO_HLC) is None
        stamp = HLCStamp(7, 2, "dc1")
        assert hlc_or_none(stamp) is stamp
        assert pickle.loads(pickle.dumps(stamp)) == stamp


class TestConfigAndCapabilities:
    def test_clock_plane_is_a_capability(self):
        from repro.baselines.registry import build_store

        clock = build_store(
            "chainreaction", sites=("dc0",), servers_per_site=3,
            chain_length=2, overrides=dict(CLOCK),
        )
        notices = build_store(
            "chainreaction", sites=("dc0",), servers_per_site=3, chain_length=2,
        )
        assert CAP_CLOCK_STABILITY in clock.capabilities
        assert CAP_CLOCK_STABILITY not in notices.capabilities

    def test_stability_value_validated(self):
        with pytest.raises(ConfigError, match="stability"):
            ChainReactionConfig(sites=("dc0",), stability="vector")

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigError, match="stability_interval"):
            ChainReactionConfig(sites=("dc0",), stability_interval=0.0)


class TestDepTableHLCColumn:
    def test_round_trip_and_default_none(self):
        table = DepTable()
        table.set("a", _vv(1), 0)
        stamp = HLCStamp(42, 1, "dc0")
        table.set("b", _vv(2), 1, hlc=stamp)
        assert table["a"].hlc is None
        assert table["b"].hlc == stamp
        # updating an existing key replaces the stamp
        table.set("b", _vv(3), 2, hlc=None)
        assert table["b"].hlc is None

    def test_snapshot_carries_stamps(self):
        table = DepTable()
        stamp = HLCStamp(9, 0, "dc1")
        table.set("k", _vv(1), 0, hlc=stamp)
        snap = table.snapshot()
        assert snap["k"].hlc == stamp

    def test_stamped_entries_cost_wire_bytes(self):
        bare, stamped = DepTable(), DepTable()
        bare.set("k", _vv(1), 0)
        stamped.set("k", _vv(1), 0, hlc=HLCStamp(1, 1, "dc0"))
        assert stamped.size_bytes() == bare.size_bytes() + HLCStamp(1, 1, "dc0").size_bytes()

    def test_setitem_preserves_entry_stamp(self):
        table = DepTable()
        stamp = HLCStamp(5, 5, "dc0")
        table["k"] = DepEntry(_vv(1), 3, stamp)
        assert table["k"].hlc == stamp


class TestClockPlaneDeterminism:
    def test_twice_run_sanitize_is_clean(self):
        from repro.analysis import sanitize_run

        report = sanitize_run(
            "chainreaction", seed=42, overrides=dict(CLOCK), **GEO
        )
        assert report.clean
        assert report.trace_length > 0

    def test_sharded_workers_match_serial(self):
        from repro.analysis import sanitize_sharded

        report = sanitize_sharded(
            "chainreaction",
            seed=42,
            workers=2,
            overrides=dict(CLOCK),
            **GEO,
        )
        assert report.clean


class TestCausalParity:
    """The clock plane must never admit a causally-unstable read: the
    same checker that gates the notices plane gates it."""

    @pytest.mark.parametrize("overrides", [None, CLOCK])
    def test_geo_history_is_causal(self, overrides):
        from repro.baselines.registry import build_store
        from repro.checker.causal import check_causal
        from repro.workload.driver import WorkloadRunner
        from repro.workload.ycsb import WorkloadSpec

        store = build_store(
            "chainreaction",
            sites=("dc0", "dc1"),
            servers_per_site=3,
            chain_length=2,
            seed=99,
            overrides=dict(overrides) if overrides else None,
        )
        spec = WorkloadSpec(
            "parity", read_proportion=0.5, update_proportion=0.5,
            record_count=10, value_size=16,
        )
        runner = WorkloadRunner(
            store, spec, n_clients=4, duration=0.4, warmup=0.05,
            record_history=True,
        )
        result = runner.run()
        assert result.ops_completed > 0
        assert check_causal(result.history) == []


class TestStabilityFlagCLI:
    def test_run_accepts_clock(self):
        code, output = run_cli(
            "run", "--stability", "clock", "--duration", "0.2",
            "--clients", "2", "--records", "10", "--sites", "dc0", "dc1",
        )
        assert code == 0

    def test_clock_requires_chain_protocols(self):
        code, output = run_cli(
            "run", "--protocol", "eventual", "--stability", "clock",
            "--duration", "0.1",
        )
        assert code == 2
        assert "stability" in output

    def test_sanitize_accepts_clock(self):
        code, output = run_cli(
            "sanitize", "--duration", "0.2", "--clients", "2",
            "--records", "10", "--stability", "clock",
        )
        assert code == 0
        assert "no divergence" in output


def _vv(counter: int):
    from repro.storage.version import VersionVector

    return VersionVector((("dc0", counter),))
