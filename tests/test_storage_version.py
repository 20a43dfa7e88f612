"""Unit and property tests for version vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.storage import ZERO, VersionVector
from repro.storage.version import dominates_entries

DCS = ["dc0", "dc1", "dc2"]

vectors = st.builds(
    VersionVector,
    st.dictionaries(st.sampled_from(DCS), st.integers(min_value=0, max_value=50)),
)


class TestBasics:
    def test_missing_entries_are_zero(self):
        vv = VersionVector({"dc0": 3})
        assert vv.get("dc0") == 3
        assert vv.get("dc1") == 0

    def test_zero_entries_normalised_away(self):
        assert VersionVector({"dc0": 0}) == ZERO
        assert VersionVector({"dc0": 0, "dc1": 1}).entries() == {"dc1": 1}

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            VersionVector({"dc0": -1})

    def test_increment_returns_new_vector(self):
        a = VersionVector({"dc0": 1})
        b = a.increment("dc0")
        assert a.get("dc0") == 1
        assert b.get("dc0") == 2

    def test_increment_new_dc(self):
        assert ZERO.increment("dc1").entries() == {"dc1": 1}

    def test_total_sums_counters(self):
        assert VersionVector({"dc0": 2, "dc1": 3}).total() == 5

    def test_is_zero(self):
        assert ZERO.is_zero()
        assert not VersionVector({"dc0": 1}).is_zero()

    def test_equality_and_hash(self):
        assert VersionVector({"dc0": 1}) == VersionVector({"dc0": 1})
        assert hash(VersionVector({"dc0": 1})) == hash(VersionVector({"dc0": 1, "dc1": 0}))

    def test_datacenters_sorted(self):
        vv = VersionVector({"dc1": 1, "dc0": 2})
        assert vv.datacenters() == ("dc0", "dc1")


class TestCausalityOrder:
    def test_dominates_is_reflexive(self):
        vv = VersionVector({"dc0": 2})
        assert vv.dominates(vv)

    def test_strict_happens_before(self):
        a = VersionVector({"dc0": 1})
        b = VersionVector({"dc0": 2})
        assert a.happens_before(b)
        assert not b.happens_before(a)
        assert not a.happens_before(a)

    def test_concurrent_vectors(self):
        a = VersionVector({"dc0": 1})
        b = VersionVector({"dc1": 1})
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_zero_precedes_everything(self):
        assert ZERO.happens_before(VersionVector({"dc0": 1}))

    def test_merge_is_least_upper_bound(self):
        a = VersionVector({"dc0": 3, "dc1": 1})
        b = VersionVector({"dc0": 1, "dc1": 5})
        merged = a.merge(b)
        assert merged.entries() == {"dc0": 3, "dc1": 5}
        assert merged.dominates(a) and merged.dominates(b)

    def test_join_many(self):
        vvs = [VersionVector({"dc0": 1}), VersionVector({"dc1": 2}), ZERO]
        assert VersionVector.join(vvs).entries() == {"dc0": 1, "dc1": 2}


class TestWireSize:
    def test_size_grows_with_entries(self):
        one = VersionVector({"dc0": 1})
        two = VersionVector({"dc0": 1, "dc1": 1})
        assert two.size_bytes() > one.size_bytes() > 0


class TestProperties:
    @given(vectors, vectors)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(vectors, vectors, vectors)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(vectors)
    def test_merge_idempotent(self, a):
        assert a.merge(a) == a

    @given(vectors, vectors)
    def test_merge_dominates_both(self, a, b):
        merged = a.merge(b)
        assert merged.dominates(a) and merged.dominates(b)

    @given(vectors, vectors)
    def test_dominance_antisymmetric(self, a, b):
        if a.dominates(b) and b.dominates(a):
            assert a == b

    @given(vectors, vectors, vectors)
    def test_dominance_transitive(self, a, b, c):
        if a.dominates(b) and b.dominates(c):
            assert a.dominates(c)

    @given(vectors, vectors)
    def test_exactly_one_relation(self, a, b):
        relations = [
            a == b,
            a.happens_before(b),
            b.happens_before(a),
            a.concurrent_with(b),
        ]
        assert sum(relations) == 1

    @given(vectors, vectors)
    def test_total_order_extends_causality(self, a, b):
        if a.happens_before(b):
            assert a.total_order_key() < b.total_order_key()

    @given(vectors, vectors)
    def test_total_order_is_total(self, a, b):
        keys = {a.total_order_key(), b.total_order_key()}
        assert len(keys) == 1 or (a < b) != (b < a)

    @given(vectors)
    def test_increment_strictly_dominates(self, a):
        assert a.happens_before(a.increment("dc0"))

    @given(vectors)
    def test_entries_roundtrip(self, a):
        assert VersionVector(a.entries()) == a


def _walk_dominates(a, b):
    """``dominates_entries`` as it was before the identity shortcut."""
    return all(dict(a).get(dc, 0) >= n for dc, n in b)


entry_tuples = st.dictionaries(
    st.sampled_from(DCS), st.integers(min_value=1, max_value=50)
).map(lambda d: tuple(sorted(d.items())))


class TestReflexiveShortcut:
    """``dominates_entries(a, a)`` answers True without walking: the
    common case is an interned version compared with itself."""

    @given(entry_tuples, entry_tuples)
    def test_same_answer_as_the_walk(self, a, b):
        assert dominates_entries(a, b) is _walk_dominates(a, b)
        assert dominates_entries(a, a) is True
        # equal but not identical operands take the walk, same answer
        assert dominates_entries(a, tuple(list(a))) is True

    def test_identity_is_never_needed_for_the_answer(self):
        from repro.storage.version import set_interning

        previous = set_interning(False)
        try:
            a, b = VersionVector({"dc0": 2}), VersionVector({"dc0": 2})
            assert a is not b and a._entries is not b._entries
            assert a.dominates(b) and b.dominates(a) and a.dominates(a)
        finally:
            set_interning(previous)
