"""Tests for the clock stabilization plane (PR 8): HLC semantics, the
``StabilityPlane`` config/capability surface, determinism of the clock
plane under the single- and multi-process engines, causal parity with
the notices plane, the dep-table HLC column, the CLI's unified
``--stability`` flag, and the plane's horizon structure (``StampSet``)
against the linear scans it replaced."""

import io
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    LinearStampSet,
    ReferenceClock,
    linear_visible,
    make_geo_store,
    make_store,
)
from repro.api import CAP_CLOCK_STABILITY
from repro.cli import main
from repro.core.clockplane import FloorTable, StampSet
from repro.core.config import ChainReactionConfig
from repro.core.deptable import DepEntry, DepTable
from repro.core.messages import ClockTick
from repro.errors import ConfigError
from repro.sim.hlc import HLC_ZERO, NO_HLC, HLCStamp, HybridClock, hlc_or_none, just_below


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


_stamps = st.builds(
    HLCStamp,
    st.integers(0, 20),
    st.integers(0, 3),
    st.sampled_from(["", "dc0:s0", "dc0:s1", "dc1:s0"]),
)


class TestHLCStampContract:
    @given(_stamps, _stamps)
    def test_order_and_equality_are_the_key_tuples(self, a, b):
        ka, kb = (a.physical, a.logical, a.origin), (b.physical, b.logical, b.origin)
        assert a.key() == ka
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
        assert (a == b) == (ka == kb)
        assert (a != b) == (ka != kb)

    @given(_stamps)
    def test_hash_is_the_tuple_hash_and_pickle_round_trips(self, a):
        assert hash(a) == hash((a.physical, a.logical, a.origin))
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back.key() == a.key() and hash(back) == hash(a)
        assert {a: 1}[HLCStamp(a.physical, a.logical, a.origin)] == 1

    def test_immutable(self):
        stamp = HLCStamp(3, 1, "dc0")
        for name in ("physical", "logical", "origin", "_key", "other"):
            with pytest.raises(AttributeError):
                setattr(stamp, name, 9)
        assert stamp.key() == (3, 1, "dc0")

    def test_not_equal_to_other_types(self):
        stamp = HLCStamp(3, 1, "dc0")
        assert stamp != (3, 1, "dc0")
        assert stamp != NO_HLC
        assert HLC_ZERO <= stamp

    @given(_stamps, _stamps)
    def test_just_below(self, stamp, other):
        below = just_below(stamp)
        if stamp.origin:
            assert below < stamp
        else:
            assert below is stamp
        if (other.physical, other.logical) < (stamp.physical, stamp.logical):
            assert other < below
        assert just_below(below) == below


_clock_ops = st.lists(
    st.tuples(
        st.sampled_from(["stamp", "observe", "peek"]),
        st.floats(0.0, 0.01, allow_nan=False),
        st.integers(0, 12_000),
        st.integers(0, 5),
    ),
    max_size=60,
)


class TestHybridClockOracle:
    @given(_clock_ops)
    def test_matches_the_reference_arithmetic(self, ops):
        sim = _FakeSim()
        clock = HybridClock(sim, "dc0:s0")
        ref = ReferenceClock("dc0:s0")
        for kind, now, s_physical, s_logical in ops:
            sim.now = now
            if kind == "stamp":
                assert clock.stamp().key() == ref.stamp(now)
            elif kind == "observe":
                clock.observe(HLCStamp(s_physical, s_logical, "dc1:s0"))
                ref.observe(now, s_physical, s_logical)
            else:
                assert clock.peek().key() == ref.peek(now)
            assert clock.max_skew == ref.max_skew
        clock.observe(NO_HLC)  # non-stamps are ignored
        assert clock.peek().key() == ref.peek(sim.now)


_set_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _stamps, st.integers(0, 50)),
        st.tuples(st.just("discard"), _stamps, st.just(0)),
        st.tuples(st.just("drop_stale"), st.just(None), st.integers(0, 60)),
        st.tuples(st.just("drop_through"), _stamps, st.just(0)),
    ),
    max_size=80,
)


@pytest.fixture(scope="module")
def geo_clock():
    """One two-site clock deployment and its dc0 site half, shared by
    every hypothesis example (each resets the state it reads)."""
    store = make_geo_store(stability="clock")
    return store, store.proxies["dc0"].plane


class TestStampSet:
    """``StampSet`` against the plain-dict scans it replaced."""

    @settings(max_examples=200)
    @given(_set_ops, _stamps, _stamps)
    def test_matches_the_linear_oracle(self, geo_clock, ops, local_lst, ship_lst):
        # Drives the real ``GeoClockCore._visible`` over a fresh pending
        # set, next to the linear rule it replaced over a plain dict.
        store, core = geo_clock
        now = store.sim.now
        core._floors = FloorTable(core._floors.stale_after)
        for server in store.proxies["dc0"].view.servers:
            core._floors.update(server, local_lst, now)
        core.dc_ship["dc1"] = ship_lst
        fast = core._pending_in = StampSet()
        ref = LinearStampSet()
        seen = set()
        for kind, stamp, at in ops:
            if kind == "add":
                fast.add(stamp, float(at))
                ref.add(stamp, float(at))
                seen.add(stamp.key())
            elif kind == "discard":
                fast.discard(stamp.key())
                ref.discard(stamp.key())
            elif kind == "drop_stale":
                fast.drop_stale(float(at))
                ref.drop_stale(float(at))
            else:
                fast.drop_through(stamp.key())
                ref.drop_through(stamp.key())
            assert fast.oldest() == ref.oldest()
            assert len(fast) == len(ref)
            assert {k for k in seen if k in fast} == {k for k in seen if k in ref}
            assert core._visible(now) == linear_visible(local_lst, ref, core.dc_ship)

    def test_duplicate_re_add_after_a_discard(self):
        # A post-repair re-ship re-adds a key whose dead copy is still in
        # the heap: one live entry, and nothing left once it goes again.
        stamps = StampSet()
        a, b = HLCStamp(5, 0, "dc0:s0"), HLCStamp(7, 0, "dc0:s0")
        stamps.add(a, 0.0)
        stamps.add(b, 0.0)
        stamps.discard(a.key())
        stamps.add(a, 1.0)
        assert stamps.oldest() == a and len(stamps) == 2
        stamps.discard(a.key())
        assert stamps.oldest() == b
        stamps.discard(b.key())
        assert stamps.oldest() is None and len(stamps) == 0

    def test_re_add_refreshes_the_stale_clock(self):
        stamps = StampSet()
        a = HLCStamp(5, 0, "dc0:s0")
        stamps.add(a, 0.0)
        stamps.add(a, 3.0)
        stamps.drop_stale(2.0)
        assert a.key() in stamps

    def test_an_orphan_pins_oldest_until_the_stale_cutoff(self):
        stamps = StampSet()
        orphan = HLCStamp(1, 0, "dc0:s0")
        stamps.add(orphan, 0.0)
        for i in range(2, 2000):
            ts = HLCStamp(i, 0, "dc0:s1")
            stamps.add(ts, i / 1000)
            if i % 7:
                stamps.discard(ts.key())
        assert stamps.oldest() == orphan
        stamps.drop_stale(0.0005)
        assert stamps.oldest() == HLCStamp(7, 0, "dc0:s1")
        # The heap holds mostly dead keys behind the orphan; it is
        # rebuilt from the live ones rather than growing with history.
        assert len(stamps._heap) <= 2 * len(stamps) + 65

    def test_drop_through_forgets_at_or_below(self):
        stamps = StampSet()
        for i in range(10):
            stamps.add(HLCStamp(i, 0, "dc0:s0"), 0.0)
        stamps.drop_through(HLCStamp(4, 0, "dc0:s0").key())
        assert len(stamps) == 5
        assert stamps.oldest() == HLCStamp(5, 0, "dc0:s0")


class _NoIteration(dict):
    """A pending map that fails the test if anything iterates it."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the pending map was iterated")

    __iter__ = keys = values = items = _refuse


class TestVisibleScaling:
    def test_visible_does_not_iterate_ten_thousand_pending_entries(self):
        store = make_geo_store(stability="clock")
        core = store.proxies["dc0"].plane
        now = store.sim.now
        # Lift the other two caps (local floors, peer ship horizons) so
        # the oldest pending injection decides ``visible``.
        high = HLCStamp(10**9, 0, "dc0:s0")
        for server in store.proxies["dc0"].view.servers:
            core._floors.update(server, high, now)
        for peer in core.dc_ship:
            core.dc_ship[peer] = high
        pending = core._pending_in
        for i in range(10_000):
            # 7919 is coprime with 10 000: every physical once, shuffled.
            pending.add(HLCStamp(10_000 + (i * 7919) % 10_000, 0, "dc1:s0"), now)
        pending._entries = _NoIteration(pending._entries)
        assert core._visible(now) == just_below(HLCStamp(10_000, 0, "dc1:s0"))
        for physical in range(10_000, 10_005):
            pending.discard(HLCStamp(physical, 0, "dc1:s0").key())
        assert core._visible(now) == just_below(HLCStamp(10_005, 0, "dc1:s0"))


class TestClockTickFanOut:
    @pytest.mark.parametrize("sites", [("dc0",), ("dc0", "dc1")])
    def test_one_frozen_instance_per_tick(self, sites):
        # Each site's geo-proxy hosts GeoClockCore, with peers or
        # without: it sends every local server the same ClockTick
        # object each interval.
        store = make_store(sites=sites, stability="clock")
        network = store.network
        original = network.send
        sent = defaultdict(list)

        def recording_send(src, dst, msg):
            if isinstance(msg, ClockTick):
                sent[(src, network.sim.now)].append(msg)
            original(src, dst, msg)

        network.send = recording_send
        store.sim.run(until=0.05)
        assert len(sent) >= 5 * len(sites)
        for ticks in sent.values():
            assert len(ticks) == store.config.servers_per_site
            assert len({id(tick) for tick in ticks}) == 1


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
