"""Unit and property tests for the convergent versioned store."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.storage import TOMBSTONE, LWWResolver, VersionedStore, VersionVector
from repro.storage.store import Record, installed


def vv(**entries):
    return VersionVector(entries)


class TestApply:
    def test_first_write_applies(self):
        store = VersionedStore()
        result = store.apply("k", "v1", vv(dc0=1))
        assert result.applied
        assert store.get("k").value == "v1"

    def test_dominating_write_replaces(self):
        store = VersionedStore()
        store.apply("k", "v1", vv(dc0=1))
        result = store.apply("k", "v2", vv(dc0=2))
        assert result.applied
        assert store.get("k").value == "v2"

    def test_dominated_write_ignored(self):
        store = VersionedStore()
        store.apply("k", "v2", vv(dc0=2))
        result = store.apply("k", "v1", vv(dc0=1))
        assert not result.applied
        assert store.get("k").value == "v2"
        assert store.writes_ignored == 1

    def test_duplicate_write_ignored(self):
        store = VersionedStore()
        store.apply("k", "v1", vv(dc0=1))
        result = store.apply("k", "v1", vv(dc0=1))
        assert not result.applied

    def test_concurrent_writes_resolved_convergently(self):
        a, b = VersionedStore(), VersionedStore()
        a.apply("k", "from0", vv(dc0=1))
        a.apply("k", "from1", vv(dc1=1))
        b.apply("k", "from1", vv(dc1=1))
        b.apply("k", "from0", vv(dc0=1))
        assert a.get("k").value == b.get("k").value
        assert a.get("k").version == b.get("k").version == vv(dc0=1, dc1=1)
        assert a.conflicts_resolved == 1

    def test_merged_version_dominates_both_inputs(self):
        store = VersionedStore()
        store.apply("k", "a", vv(dc0=1))
        result = store.apply("k", "b", vv(dc1=1))
        assert result.was_conflict
        assert result.record.version.dominates(vv(dc0=1))
        assert result.record.version.dominates(vv(dc1=1))

    def test_version_of_unknown_key_is_zero(self):
        assert VersionedStore().version_of("nope").is_zero()


class TestTombstones:
    def test_delete_hides_value(self):
        store = VersionedStore()
        store.apply("k", "v", vv(dc0=1))
        store.delete("k", vv(dc0=2))
        assert store.get("k") is None
        assert "k" not in store

    def test_tombstone_retains_version(self):
        store = VersionedStore()
        store.apply("k", "v", vv(dc0=1))
        store.delete("k", vv(dc0=2))
        assert store.get_record("k").version == vv(dc0=2)
        assert store.get_record("k").is_deleted

    def test_stale_write_does_not_resurrect(self):
        store = VersionedStore()
        store.delete("k", vv(dc0=2))
        store.apply("k", "old", vv(dc0=1))
        assert store.get("k") is None

    def test_newer_write_overrides_tombstone(self):
        store = VersionedStore()
        store.delete("k", vv(dc0=1))
        store.apply("k", "new", vv(dc0=2))
        assert store.get("k").value == "new"

    def test_len_excludes_tombstones(self):
        store = VersionedStore()
        store.apply("a", 1, vv(dc0=1))
        store.apply("b", 2, vv(dc0=1))
        store.delete("a", vv(dc0=2))
        assert len(store) == 1
        assert list(store.keys()) == ["b"]


class TestAntiEntropy:
    def test_digest_covers_tombstones(self):
        store = VersionedStore()
        store.apply("a", 1, vv(dc0=1))
        store.delete("a", vv(dc0=2))
        assert store.digest() == {"a": vv(dc0=2)}

    def test_records_newer_than_finds_missing(self):
        ahead, behind = VersionedStore(), VersionedStore()
        ahead.apply("a", 1, vv(dc0=1))
        ahead.apply("b", 2, vv(dc0=1))
        behind.apply("a", 1, vv(dc0=1))
        missing = ahead.records_newer_than(behind.digest())
        assert [r.key for r in missing] == ["b"]

    def test_records_newer_than_finds_stale(self):
        ahead, behind = VersionedStore(), VersionedStore()
        ahead.apply("a", 2, vv(dc0=2))
        behind.apply("a", 1, vv(dc0=1))
        assert [r.key for r in ahead.records_newer_than(behind.digest())] == ["a"]

    def test_nothing_missing_when_equal(self):
        a = VersionedStore()
        a.apply("a", 1, vv(dc0=1))
        assert a.records_newer_than(a.digest()) == []

    def test_clear_wipes_state(self):
        store = VersionedStore()
        store.apply("a", 1, vv(dc0=1))
        store.clear()
        assert len(store) == 0


# Hypothesis: a set of *realistically versioned* writes applied in any
# order converges. Realistic means what the protocols guarantee: each
# datacenter assigns its per-key counter exactly once per write (a
# single serialisation point per key per DC), possibly reflecting some
# prefix of the other DC's writes it has already merged. Without that
# discipline a write could collide with the pointwise merge of two
# concurrent writes, which no protocol execution produces.
@st.composite
def write_sets(draw):
    counters = {("k1", "dc0"): 0, ("k1", "dc1"): 0, ("k2", "dc0"): 0, ("k2", "dc1"): 0}
    # Each (key, DC) pair is a serialisation point whose assigned vectors
    # only grow — heads/owners never forget what they have merged.
    state = {}
    writes = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        key = draw(st.sampled_from(["k1", "k2"]))
        dc = draw(st.sampled_from(["dc0", "dc1"]))
        other = "dc1" if dc == "dc0" else "dc0"
        counters[(key, dc)] += 1
        seen_other = draw(st.integers(min_value=0, max_value=counters[(key, other)]))
        previous = state.get((key, dc), VersionVector())
        version = previous.merge(VersionVector({other: seen_other})).increment(dc)
        state[(key, dc)] = version
        writes.append((key, i, version.entries()))
    return writes


class TestInstall:
    """``install`` takes a shared ``key → Record`` base and the rule for
    which of its keys the store holds; an empty store keeps both and has
    no table of its own (docs/PERFORMANCE.md §11)."""

    @staticmethod
    def records(*keys, n=1):
        return {k: Record(k, f"v-{k}", vv(preload=n), (n, (("preload", n),)), 0.0) for k in keys}

    @staticmethod
    def holds_all_but(*skipped):
        return lambda key: key not in skipped

    def test_an_empty_store_keeps_the_base_and_its_rule(self):
        store = VersionedStore()
        base = self.records("a", "b", "c")
        assert store.install(base, self.holds_all_but("b")) == []
        assert store._base is base and store._data == {}
        assert store.writes_applied == 2
        assert [r.key for r in store.all_records()] == ["a", "c"]
        assert store.get_record("a") is base["a"] and store.get_record("b") is None
        assert store.version_of("b").is_zero() and "b" not in store and len(store) == 2

    def test_writes_go_to_the_own_table_and_keep_one_tables_order(self):
        store = VersionedStore()
        base = self.records("a", "b", "c")
        store.install(base, self.holds_all_but("b"))
        store.apply("d", "later", vv(dc0=1))
        store.apply("a", "newer", vv(preload=1, dc0=1))
        store.apply("b", "not-held", vv(dc0=1))  # in the base, not held here
        assert base == self.records("a", "b", "c")  # the base is never edited
        assert list(store._data) == ["d", "a", "b"]
        assert [(r.key, r.value) for r in store.all_records()] == [
            ("a", "newer"), ("c", "v-c"), ("d", "later"), ("b", "not-held")
        ]
        assert list(store.keys()) == ["a", "c", "d", "b"]
        assert list(store.digest()) == ["a", "c", "d", "b"]
        assert store.writes_applied == 5

    def test_a_store_with_state_stores_new_keys_as_given(self):
        store = VersionedStore()
        store.apply("z", "old", vv(dc0=1))
        base = self.records("a", "b")
        assert store.install(base, self.holds_all_but()) == []
        assert store._base is None
        assert [r.key for r in store.all_records()] == ["z", "a", "b"]
        assert store.get_record("a") is base["a"]
        assert store.writes_applied == 3

    def test_keys_already_held_are_arbitrated_and_returned(self):
        store = VersionedStore()
        store.apply("a", "newer", vv(dc0=1, preload=1))
        store.apply("b", "older", vv())  # dominated by the offer
        base = self.records("a", "b", "c")
        assert store.install(base, self.holds_all_but()) == ["a", "b"]
        assert store.get_record("a").value == "newer" and store.writes_ignored == 1
        assert store.get_record("b").value == "v-b" and store.get_record("b") is not base["b"]
        assert store.get_record("c") is base["c"]
        assert [r.key for r in installed(base, self.holds_all_but(), ["a", "b"])] == ["c"]

    def test_a_second_base_is_arbitrated_against_the_first(self):
        store = VersionedStore()
        first = self.records("a", "b")
        store.install(first, self.holds_all_but("b"))
        second = self.records("a", "b", "c", n=2)
        assert store.install(second, self.holds_all_but()) == ["a"]
        assert store._base is first
        assert [(r.key, r.version) for r in store.all_records()] == [
            ("a", vv(preload=2)), ("b", vv(preload=2)), ("c", vv(preload=2))
        ]
        assert store.get_record("b") is second["b"]
        assert store.writes_applied == 4

    def test_clear_after_adoption_wipes_the_store_like_any_other(self):
        store = VersionedStore()
        base = self.records("a")
        store.install(base, self.holds_all_but())
        store.clear()
        assert store.get_record("a") is None and store._base is None
        assert store.writes_applied == 1 and base == self.records("a")
        assert store.install(self.records("a", n=2), self.holds_all_but()) == []
        assert store.version_of("a") == vv(preload=2)
        assert store.writes_applied == 2

    def test_same_outcome_as_apply_per_record(self):
        bulk, walked = VersionedStore(), VersionedStore()
        for target in (bulk, walked):
            target.apply("b", "live", vv(dc0=2))
        base = self.records("a", "b", "c", "d")
        holds = self.holds_all_but("c")
        for rec in base.values():
            if holds(rec.key):
                walked.apply(rec.key, rec.value, rec.version, rec.updated_at, rec.stamp)
        bulk.install(base, holds)
        assert bulk.checksum_state() == walked.checksum_state()
        assert [r.key for r in bulk.all_records()] == [r.key for r in walked.all_records()]
        assert (bulk.writes_applied, bulk.writes_ignored, bulk.conflicts_resolved) == (
            walked.writes_applied, walked.writes_ignored, walked.conflicts_resolved
        )


class TestConvergenceProperty:
    @given(write_sets(), st.randoms())
    def test_apply_order_does_not_matter(self, writes, rnd):
        ordered = VersionedStore()
        shuffled_store = VersionedStore()
        shuffled = list(writes)
        rnd.shuffle(shuffled)
        for key, value, entries in writes:
            ordered.apply(key, value, VersionVector(entries))
        for key, value, entries in shuffled:
            shuffled_store.apply(key, value, VersionVector(entries))
        assert ordered.checksum_state() == shuffled_store.checksum_state()

    @given(write_sets())
    def test_all_permutations_converge_small(self, writes):
        states = set()
        for perm in itertools.islice(itertools.permutations(writes), 24):
            store = VersionedStore()
            for key, value, entries in perm:
                store.apply(key, value, VersionVector(entries))
            states.add(store.checksum_state())
        assert len(states) == 1
