"""Oracles for the entry math the stability path asks on every hop.

``dominates_entries`` scans without a helper call per entry,
``merge_entries`` answers a dominating ``b`` before building any dict,
and ``StabilityTracker.is_stable`` / ``record`` read the entry once and
compare entries directly. Each is held here to a plain reference: a
dict-based comparison and merge, and the tracker's own
``stable_version(key).dominates(v)`` / ``.merge(v)``.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.core.stability import StabilityTracker
from repro.sim import Simulator
from repro.storage import VersionVector
from repro.storage.version import dominates_entries, merge_entries, set_interning

DCS = ["dc0", "dc1", "dc2", "dc3"]

#: canonical entries over 1–4 datacenters (sorted, no zero counters),
#: or the empty tuple (ZERO)
entries = st.one_of(
    st.just(()),
    st.dictionaries(
        st.sampled_from(DCS), st.integers(min_value=1, max_value=6), min_size=1, max_size=4
    ).map(lambda d: tuple(sorted(d.items()))),
)

#: one pair of each shape, whatever the draws: ZERO twice, ZERO and not,
#: equal but distinct tuples, ``a`` above, ``b`` above, concurrent
SHAPES = [
    ((), ()),
    ((), (("dc1", 2),)),
    ((("dc0", 1), ("dc2", 3)), (("dc0", 1), ("dc2", 3))),
    ((("dc0", 2), ("dc1", 1)), (("dc0", 1),)),
    ((("dc3", 1),), (("dc0", 4), ("dc3", 1))),
    ((("dc0", 2), ("dc1", 1)), (("dc0", 1), ("dc1", 2), ("dc2", 1))),
]


def shapes(test):
    for a, b in SHAPES:
        test = example((a, _copy(b)))(test)
    return test


def _copy(a):
    """An equal tuple that is not ``a`` itself."""
    return tuple(list(a))


def _lowered(a, cuts):
    return tuple((dc, n - min(cut, n - 1)) for (dc, n), cut in zip(a, cuts))


@st.composite
def pairs(draw):
    """``(a, b)``: unrelated, equal (a distinct tuple), ``b`` below or
    above ``a``, or one side ZERO."""
    a = draw(entries)
    kind = draw(st.sampled_from(["free", "equal", "below", "above", "zero-a", "zero-b"]))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=len(a), max_size=len(a)))
    if kind == "free":
        return a, draw(entries)
    if kind == "equal":
        return a, _copy(a)
    if kind == "below":
        return a, _lowered(a, cuts)
    if kind == "above":
        return _lowered(a, cuts), a
    if kind == "zero-a":
        return (), a
    return a, ()


def ref_dominates(a, b):
    held = dict(a)
    return all(held.get(dc, 0) >= n for dc, n in b)


def ref_merge(a, b):
    merged = dict(a)
    for dc, n in b:
        merged[dc] = max(merged.get(dc, 0), n)
    return tuple(sorted(merged.items()))


class TestEntryMath:
    @shapes
    @given(pairs())
    def test_dominates_matches_the_dict_reference(self, pair):
        a, b = pair
        assert dominates_entries(a, b) is ref_dominates(a, b)
        assert dominates_entries(b, a) is ref_dominates(b, a)

    @shapes
    @given(pairs())
    def test_merge_matches_the_dict_reference(self, pair):
        a, b = pair
        assert merge_entries(a, b) == ref_merge(a, b)
        assert merge_entries(b, a) == ref_merge(b, a)

    @shapes
    @given(pairs())
    def test_merge_returns_the_operand_that_already_is_the_bound(self, pair):
        for a, b in (pair, pair[::-1]):
            lub = ref_merge(a, b)
            merged = merge_entries(a, b)
            if lub == a:  # ``a`` dominates or equals: ``a`` itself
                assert merged is a
            elif lub == b:
                assert merged is b
            else:
                assert merged is not a and merged is not b


def _vv(d):
    return VersionVector(dict(d))


#: tracker operations: ask / record / wait on one of three keys
keys = st.sampled_from(["k0", "k1", "k2"])
ops = st.lists(
    st.tuples(st.sampled_from(["ask", "record", "wait"]), keys, entries),
    min_size=1,
    max_size=40,
)
#: the floor answers ``k0`` and ``k1`` (a preloaded key, a sealed one)
floors = st.tuples(entries, entries)


@pytest.fixture(params=[True, False], ids=["interned", "not-interned"])
def interning(request):
    previous = set_interning(request.param)
    yield
    set_interning(previous)


@pytest.mark.usefixtures("interning")
class TestTrackerAgainstStableVersion:
    """With interning off equal vectors are distinct objects, so the
    identity ``record`` keeps (``merge``'s) is checked too."""

    @given(ops, floors)
    def test_is_stable_and_record_answer_as_stable_version_does(self, script, floor_entries):
        sim = Simulator()
        tracker = StabilityTracker()
        floor = {"k0": _vv(floor_entries[0]), "k1": _vv(floor_entries[1])}
        nothing = VersionVector()  # one object: the floor answers by identity too
        tracker.set_floor(lambda key: floor.get(key, nothing))
        parked = []
        for kind, key, raw in script:
            version = _vv(raw)
            if kind == "ask":
                assert tracker.is_stable(key, version) is tracker.stable_version(key).dominates(version)
            elif kind == "record":
                stable = tracker.stable_version(key)
                expected = stable.merge(version)
                tracker.record(key, version)
                entry = tracker.raw_entry(key)
                assert entry == expected
                if expected is stable or expected is version:
                    assert entry is expected  # the operand merge forwards
            else:
                parked.append((key, version, tracker.wait(sim, key, version)))
            for waited_key, wanted, future in parked:
                assert future.done() is tracker.stable_version(waited_key).dominates(wanted)
            assert tracker.pending_waiters() == sum(not future.done() for _, _, future in parked)
