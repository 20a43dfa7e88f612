"""Tests for the memory-scale engine: version/string interning
invariants (including that a run never depends on vector identity), the
columnar dependency table with copy-on-write snapshots, and the memory
census."""

import pickle

import pytest

from helpers import run_op
from repro.core.deptable import DepSnapshot, DepTable
from repro.core.messages import DepEntry, deps_size_bytes
from repro.metrics.memory import TracedPeak, census_totals, memory_census, traced_call
from repro.storage.version import (
    ZERO,
    VersionVector,
    clear_intern_pool,
    intern_stats,
    intern_str,
    set_interning,
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts from a clean pool and restores interning."""
    previous = set_interning(True)
    clear_intern_pool()
    yield
    set_interning(previous)
    clear_intern_pool()


def vv(**entries):
    return VersionVector(entries)


class TestInterningInvariants:
    def test_equal_vectors_share_identity_when_interned(self):
        assert vv(dc0=3, dc1=1) is vv(dc1=1, dc0=3)
        assert VersionVector() is ZERO

    def test_interned_equals_uninterned(self):
        # A vector built while interning is on must compare and hash
        # identically to one built while it is off — interning collapses
        # identity, never value.
        pooled = vv(dc0=3, dc1=1)
        set_interning(False)
        unpooled = vv(dc0=3, dc1=1)
        assert pooled is not unpooled
        assert pooled == unpooled
        assert hash(pooled) == hash(unpooled)
        assert pooled.total_order_key() == unpooled.total_order_key()
        assert not pooled.concurrent_with(unpooled)

    def test_operations_mix_pooled_and_unpooled(self):
        pooled = vv(dc0=1)
        set_interning(False)
        unpooled = vv(dc1=2)
        merged = pooled.merge(unpooled)
        assert merged.entries() == {"dc0": 1, "dc1": 2}
        assert VersionVector.join([pooled, unpooled]) == merged

    def test_pool_is_bounded(self):
        capacity = intern_stats()["capacity"]
        for i in range(capacity + 100):
            vv(dc0=i + 1)
        assert intern_stats()["entries"] <= capacity
        # Overflow vectors still work, they are just not shared.
        big = vv(dc0=10**9)
        assert big == vv(dc0=10**9)

    def test_pickle_roundtrips_through_pool(self):
        original = vv(dc0=4, dc1=2)
        clone = pickle.loads(pickle.dumps(original))
        assert clone is original  # re-pooled on load
        assert ZERO.entries() == {}  # ZERO untouched by unpickling
        set_interning(False)
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original and clone is not original

    def test_subclass_bypasses_pool(self):
        class Tagged(VersionVector):
            pass

        tagged = Tagged({"dc0": 3})
        assert type(tagged) is Tagged
        assert tagged == vv(dc0=3)
        assert tagged is not vv(dc0=3)

    def test_clear_preserves_canonical_zero(self):
        vv(dc0=1)
        clear_intern_pool()
        stats = intern_stats()
        assert stats["entries"] == 1  # just ZERO
        assert VersionVector() is ZERO


class TestStringInterning:
    def test_interned_string_is_shared(self):
        a = intern_str("user:" + "0" * 8)
        b = intern_str("user:" + "0" * 8)
        assert a is b

    def test_disabled_interning_passes_through(self):
        set_interning(False)
        s = "user:" + "1" * 8
        assert intern_str(s) is s
        assert intern_stats()["str_entries"] == 0

    def test_str_pool_is_bounded(self):
        capacity = intern_stats()["capacity"]
        for i in range(capacity + 50):
            intern_str(f"k{i}")
        assert intern_stats()["str_entries"] <= capacity


class TestDepTable:
    def entries(self, table):
        return {k: (e.version, e.index) for k, e in table.items()}

    def test_set_get_roundtrip(self):
        table = DepTable()
        table.set("a", vv(dc0=1), 2)
        assert table.version_for("a") == vv(dc0=1)
        assert table.index_for("a") == 2
        assert table["a"] == DepEntry(vv(dc0=1), 2)
        assert "a" in table and len(table) == 1
        assert table.version_for("missing") is None

    def test_update_keeps_iteration_position(self):
        table = DepTable()
        for name in ("a", "b", "c"):
            table.set(name, vv(dc0=1), 0)
        table.set("b", vv(dc0=9), 1)
        assert list(table) == ["a", "b", "c"]

    def test_pop_and_readd_moves_to_end(self):
        table = DepTable()
        for name in ("a", "b", "c"):
            table.set(name, vv(dc0=1), 0)
        popped = table.pop("a")
        assert popped == DepEntry(vv(dc0=1), 0)
        assert table.pop("a", "sentinel") == "sentinel"
        table.set("a", vv(dc0=2), 0)
        assert list(table) == ["b", "c", "a"]

    def test_snapshot_does_not_see_appends(self):
        table = DepTable()
        table.set("a", vv(dc0=1), 0)
        snap = table.snapshot()
        table.set("b", vv(dc0=2), 0)
        assert set(snap.keys()) == {"a"}
        assert set(table.keys()) == {"a", "b"}

    def test_snapshot_immune_to_in_place_update(self):
        table = DepTable()
        table.set("a", vv(dc0=1), 0)
        snap = table.snapshot()
        table.set("a", vv(dc0=9), 3)  # forces copy-on-write
        assert snap["a"] == DepEntry(vv(dc0=1), 0)
        assert table["a"] == DepEntry(vv(dc0=9), 3)

    def test_snapshot_immune_to_pop_and_clear(self):
        table = DepTable()
        table.set("a", vv(dc0=1), 0)
        table.set("b", vv(dc0=2), 1)
        snap = table.snapshot()
        table.pop("a")
        table.clear()
        assert dict(snap) == {
            "a": DepEntry(vv(dc0=1), 0),
            "b": DepEntry(vv(dc0=2), 1),
        }
        assert len(table) == 0

    def test_snapshot_sizing_matches_dict_form(self):
        table = DepTable()
        for i in range(5):
            table.set(f"key-{i}", vv(dc0=i + 1, dc1=i), i % 3)
        snap = table.snapshot()
        assert snap.size_bytes() == deps_size_bytes(dict(snap))
        assert table.size_bytes() == deps_size_bytes(table.as_dict())

    def test_snapshot_equality_with_dict(self):
        table = DepTable()
        table.set("a", vv(dc0=1), 0)
        snap = table.snapshot()
        assert snap == {"a": DepEntry(vv(dc0=1), 0)}
        assert snap == table.snapshot()
        assert isinstance(snap, DepSnapshot)

    def test_holes_compact(self):
        table = DepTable()
        for i in range(64):
            table.set(f"k{i}", vv(dc0=1), 0)
        for i in range(63):
            table.pop(f"k{i}")
        assert len(table) == 1
        # Compaction fired while the columns were still >= the minimum
        # size; the tail of pops below that floor may leave small holes.
        assert table.column_slots() < 64
        assert list(table) == ["k63"]


def small_store(**overrides):
    from repro.baselines.registry import build_store

    return build_store(
        "chainreaction",
        sites=("dc0", "dc1"),
        servers_per_site=3,
        chain_length=2,
        seed=11,
        **overrides,
    )


def run_small_workload(store, duration=0.4):
    from repro.workload import WorkloadRunner, workload

    spec = workload("B", record_count=20, value_size=32)
    runner = WorkloadRunner(
        store, spec, n_clients=4, duration=duration, warmup=0.1,
        record_history=False,
    )
    return runner.run()


class TestMemoryCensus:
    def test_census_counts_preloaded_records(self):
        store = small_store()
        store.preload({f"k{i}": "v" for i in range(10)})
        census = memory_census(store)
        # 10 keys × replicas on both sites.
        assert census["records"]["objects"] >= 20
        assert census["records"]["bytes"] > 0
        # Was "> 0" while preload wrote one tracker entry per replica
        # install: a record installed converged answers for itself, and
        # a key gets its entries at its first overwrite.
        assert census["stability"]["objects"] == 0
        assert census["vv_intern_pool"]["entries"] >= 1
        run_op(store, store.session("dc0").put("k3", "w"))
        store.run(until=store.sim.now + 1.0)
        assert memory_census(store)["stability"]["objects"] > 0

    def test_census_covers_session_dep_tables(self):
        store = small_store()
        run_small_workload(store)
        census = memory_census(store)
        assert census["dep_tables"]["objects"] > 0
        assert census["dep_tables"]["bytes"] > 0
        assert census["dep_tables"]["column_slots"] >= census["dep_tables"]["objects"]
        totals = census_totals(census)
        assert totals["objects"] > 0 and totals["bytes"] > 0
        # Gauge sections do not pollute the totals.
        assert totals["objects"] < 10**9

    def test_traced_peak_reports_bytes(self):
        with TracedPeak() as trace:
            # bytearray defeats constant folding: 256 real allocations.
            blob = [bytearray(1024) for _ in range(256)]
        assert trace.peak_bytes > 100_000
        assert trace.current_bytes >= 0
        del blob
        result, current, peak = traced_call(lambda: sum(range(1000)))
        assert result == 499500 and peak >= 0 and current >= 0


class TestIdentityIndependence:
    def test_run_without_interning_is_event_identical(self):
        store = small_store()
        result = run_small_workload(store)
        events = store.sim.events_processed
        clear_intern_pool()
        set_interning(False)
        unpooled_store = small_store()
        unpooled_result = run_small_workload(unpooled_store)
        assert unpooled_store.sim.events_processed == events
        assert unpooled_result.ops_completed == result.ops_completed


class TestInterningUnderFaults:
    def test_crash_recover_campaign_does_not_leak_pool(self):
        from repro.faults import campaign, run_campaign

        spec = campaign("crash-head").with_updates(
            clients=4, records=25, duration=1.8, warmup=0.2
        )
        result = run_campaign(spec, seed=7)
        assert result.clean, result.format()
        stats = intern_stats()
        assert stats["entries"] <= stats["capacity"]
        assert stats["str_entries"] <= stats["capacity"]
        # The pool fully drains on clear: crash/recovery left no pinned
        # aliases that survive as stale entries.
        clear_intern_pool()
        assert intern_stats()["entries"] == 1  # canonical ZERO only

    def test_sanitize_twice_run_with_interning(self):
        from repro.analysis import sanitize_run

        report = sanitize_run(
            "chainreaction",
            seed=11,
            clients=2,
            duration=0.3,
            warmup=0.1,
            records=10,
            servers_per_site=3,
        )
        assert report.divergence is None
        assert report.events_processed[0] == report.events_processed[1]
