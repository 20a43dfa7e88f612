"""Tests for the log-structured durable store."""

import pytest
from hypothesis import given, strategies as st

from repro.storage import AppendLog, DurableStore, LogEntry, VersionVector, VersionedStore
from repro.storage.store import ConvergedBase


def vv(**entries):
    return VersionVector(entries)


class TestLogging:
    def test_applied_writes_are_logged(self):
        store = DurableStore()
        store.apply("k", "v1", vv(dc0=1))
        store.apply("k", "v2", vv(dc0=2))
        assert len(store.log) == 2
        assert store.log.entries()[0].key == "k"

    def test_ignored_writes_are_not_logged(self):
        store = DurableStore()
        store.apply("k", "v2", vv(dc0=2))
        store.apply("k", "v1", vv(dc0=1))  # dominated
        store.apply("k", "v2", vv(dc0=2))  # duplicate
        assert len(store.log) == 1

    def test_tombstones_logged(self):
        store = DurableStore()
        store.apply("k", "v", vv(dc0=1))
        store.delete("k", vv(dc0=2))
        assert len(store.log) == 2

    def test_log_byte_accounting(self):
        store = DurableStore()
        store.apply("k", "x" * 100, vv(dc0=1))
        assert store.log.bytes_written > 100


class TestRecovery:
    def test_clear_keeps_log(self):
        store = DurableStore()
        store.apply("k", "v", vv(dc0=1))
        store.clear()
        assert len(store) == 0
        assert len(store.log) == 1

    def test_replay_restores_state(self):
        store = DurableStore()
        store.apply("a", 1, vv(dc0=1))
        store.apply("b", 2, vv(dc0=1))
        store.apply("a", 3, vv(dc0=2))
        image = store.checksum_state()
        store.clear()
        replayed = store.recover_from_log()
        assert replayed == 3
        assert store.checksum_state() == image

    def test_replay_is_idempotent(self):
        store = DurableStore()
        store.apply("a", 1, vv(dc0=1))
        image = store.checksum_state()
        store.recover_from_log()
        store.recover_from_log()
        assert store.checksum_state() == image
        assert len(store.log) == 1  # replay never re-logs

    def test_replay_restores_conflict_resolution(self):
        store = DurableStore()
        store.apply("k", "x", vv(dc0=1))
        store.apply("k", "y", vv(dc1=1))  # concurrent: LWW merge
        image = store.checksum_state()
        store.clear()
        store.recover_from_log()
        assert store.checksum_state() == image

    def test_wiped_log_recovers_nothing(self):
        store = DurableStore()
        store.apply("k", "v", vv(dc0=1))
        store.clear()
        store.log.wipe()
        assert store.recover_from_log() == 0
        assert len(store) == 0


class TestCompaction:
    def test_compaction_keeps_only_live_image(self):
        store = DurableStore(min_compact_entries=1, compact_ratio=1.0)
        for i in range(10):
            store.apply("k", i, vv(dc0=i + 1))
        assert len(store.log) == 10
        reclaimed = store.compact()
        assert reclaimed == 9
        assert len(store.log) == 1

    def test_recovery_after_compaction(self):
        store = DurableStore()
        for i in range(10):
            store.apply("k", i, vv(dc0=i + 1))
        store.apply("other", "x", vv(dc0=1))
        store.compact()
        image = store.checksum_state()
        store.clear()
        store.recover_from_log()
        assert store.checksum_state() == image

    def test_should_compact_policy(self):
        store = DurableStore(min_compact_entries=8, compact_ratio=2.0)
        for i in range(7):
            store.apply("k", i, vv(dc0=i + 1))
        assert not store.should_compact()  # below min entries
        store.apply("k", 7, vv(dc0=8))
        assert store.should_compact()  # 8 entries, 1 live, ratio 8 > 2
        assert store.maybe_compact() == 7
        assert not store.should_compact()

    def test_a_second_check_asks_the_rule_only_about_own_table_keys(self):
        base = ConvergedBase({f"user{i:05d}": i for i in range(10_000)}, vv(preload=1))
        asked = []

        def holds(key):  # a fixed rule over the base: every other key
            asked.append(key)
            return int(key[4:]) % 2 == 0

        store = DurableStore(min_compact_entries=8, compact_ratio=2.0)
        store.install(base, holds)
        for i in range(0, 40, 4):  # held base keys, written here
            store.apply(f"user{i:05d}", "again", vv(dc0=i + 1))
        store.apply("user00001", "not held", vv(dc0=1))  # a base key it does not hold
        store.apply("brand-new", "x", vv(dc0=1))
        assert not store.should_compact()
        asked.clear()
        assert not store.should_compact()
        assert store.writes_applied == 5_000 + 12
        assert sorted(asked) == sorted(key for key in store._data if key in base.entries)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            DurableStore(compact_ratio=0.5)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 99)),
            min_size=1,
            max_size=20,
        )
    )
    def test_compaction_never_changes_state(self, writes):
        store = DurableStore()
        for i, (key, value) in enumerate(writes):
            store.apply(key, value, vv(dc0=i + 1))
        image = store.checksum_state()
        store.compact()
        assert store.checksum_state() == image
        store.clear()
        store.recover_from_log()
        assert store.checksum_state() == image


class TestDurableChainNode:
    def test_crash_wipe_recover_restores_data(self):
        from helpers import make_store, run_op

        store = make_store(durable_storage=True, servers_per_site=4)
        s = store.session()
        for i in range(8):
            run_op(store, s.put(f"k{i}", i))
        store.run(until=store.sim.now + 0.5)
        victim = store.servers()[0]
        keys_held = set(victim.store.keys())
        victim.crash()
        victim.store.clear()  # crash loses memory, not the log
        victim.recover()
        store.run(until=store.sim.now + 2.0)
        assert keys_held <= set(victim.store.keys())
        assert victim.store.recoveries == 1

    def test_compaction_runs_under_write_load(self):
        from helpers import make_store, run_op

        from repro.core.node import COMPACTION_INTERVAL

        store = make_store(durable_storage=True, servers_per_site=4)
        s = store.session()
        for i in range(120):
            run_op(store, s.put("hot", i))
        store.run(until=store.sim.now + COMPACTION_INTERVAL + 0.1)
        assert any(n.store.compactions > 0 for n in store.servers())
        # data still correct after compactions
        from helpers import run_op as ro

        assert ro(store, s.get("hot")).value == 119

    def test_reads_correct_after_recovery_cycle(self):
        from helpers import make_store, run_op

        store = make_store(durable_storage=True, servers_per_site=4)
        s = store.session()
        for i in range(6):
            run_op(store, s.put(f"k{i}", i))
        store.run(until=store.sim.now + 0.5)
        victim = store.servers()[0]
        victim.crash()
        victim.store.clear()
        store.run(until=store.sim.now + 1.5)  # removed from view
        victim.recover()
        store.run(until=store.sim.now + 2.0)  # re-admitted + repaired
        for i in range(6):
            assert run_op(store, s.get(f"k{i}"), extra=2.0).value == i
