"""Unit tests for the DC-stability tracker."""

from repro.core.stability import StabilityTracker
from repro.sim import Simulator
from repro.storage import VersionVector


def vv(**entries):
    return VersionVector(entries)


class TestStabilityTracker:
    def test_initially_only_zero_is_stable(self):
        tracker = StabilityTracker()
        assert tracker.is_stable("k", vv())
        assert not tracker.is_stable("k", vv(dc0=1))

    def test_record_makes_version_stable(self):
        tracker = StabilityTracker()
        tracker.record("k", vv(dc0=2))
        assert tracker.is_stable("k", vv(dc0=1))
        assert tracker.is_stable("k", vv(dc0=2))
        assert not tracker.is_stable("k", vv(dc0=3))

    def test_stability_is_per_key(self):
        tracker = StabilityTracker()
        tracker.record("a", vv(dc0=5))
        assert not tracker.is_stable("b", vv(dc0=1))

    def test_stable_version_merges_monotonically(self):
        tracker = StabilityTracker()
        tracker.record("k", vv(dc0=2))
        tracker.record("k", vv(dc1=3))
        assert tracker.stable_version("k") == vv(dc0=2, dc1=3)
        tracker.record("k", vv(dc0=1))  # older: no regression
        assert tracker.stable_version("k") == vv(dc0=2, dc1=3)

    def test_wait_resolves_immediately_when_stable(self):
        sim = Simulator()
        tracker = StabilityTracker()
        tracker.record("k", vv(dc0=1))
        fut = tracker.wait(sim, "k", vv(dc0=1))
        assert fut.done() and fut.result() is True

    def test_wait_parks_until_recorded(self):
        sim = Simulator()
        tracker = StabilityTracker()
        fut = tracker.wait(sim, "k", vv(dc0=2))
        assert not fut.done()
        tracker.record("k", vv(dc0=1))
        assert not fut.done()
        tracker.record("k", vv(dc0=2))
        assert fut.done()

    def test_waiters_resolved_by_covering_merge(self):
        sim = Simulator()
        tracker = StabilityTracker()
        fut = tracker.wait(sim, "k", vv(dc0=1, dc1=1))
        tracker.record("k", vv(dc0=1))
        tracker.record("k", vv(dc1=1))
        assert fut.done()

    def test_pending_waiters_counted_and_drained(self):
        sim = Simulator()
        tracker = StabilityTracker()
        tracker.wait(sim, "a", vv(dc0=1))
        tracker.wait(sim, "b", vv(dc0=1))
        assert tracker.pending_waiters() == 2
        tracker.record("a", vv(dc0=1))
        assert tracker.pending_waiters() == 1

    def test_multiple_waiters_same_key_selective_wakeup(self):
        sim = Simulator()
        tracker = StabilityTracker()
        near = tracker.wait(sim, "k", vv(dc0=1))
        far = tracker.wait(sim, "k", vv(dc0=5))
        tracker.record("k", vv(dc0=2))
        assert near.done() and not far.done()

    def test_snapshot_copies_state(self):
        tracker = StabilityTracker()
        tracker.record("k", vv(dc0=1))
        snap = tracker.snapshot()
        snap["k"] = vv(dc0=99)
        assert tracker.stable_version("k") == vv(dc0=1)

    def test_notification_counter(self):
        tracker = StabilityTracker()
        tracker.record("k", vv(dc0=1))
        tracker.record("k", vv(dc0=2))
        assert tracker.notifications == 2


class TestFloorAndUnsealing:
    """Keys without a live entry are answered by the floor the owning
    server installs; ``adopt`` turns that answer into an entry."""

    def test_a_tracker_nobody_gave_a_floor_answers_zero(self):
        tracker = StabilityTracker()
        assert tracker.stable_version("k") == vv()
        assert tracker.entry_count() == 0

    def test_record_all_is_record_per_key_in_order(self):
        sim = Simulator()
        tracker = StabilityTracker()
        tracker.set_floor(lambda key: vv(dc0=1) if key == "b" else vv())
        parked = tracker.wait(sim, "c", vv(dc1=1))
        seen = []
        original = tracker.record

        def spying(key, version):
            seen.append(key)
            original(key, version)

        tracker.record = spying  # what the invariant monitor does
        tracker.record_all(iter(["a", "b", "c"]), vv(dc1=1))
        assert seen == ["a", "b", "c"]
        assert tracker.notifications == 3 and parked.done()
        assert tracker.stable_version("b") == vv(dc0=1, dc1=1)  # merged with the floor

    def test_adopt_takes_the_floor_answer_as_a_live_entry_silently(self):
        sim = Simulator()
        tracker = StabilityTracker()
        floor = {"k": vv(preload=1)}
        tracker.set_floor(lambda key: floor.get(key, vv()))
        parked = tracker.wait(sim, "k", vv(dc0=1, preload=1))
        tracker.adopt("k", tracker.stable_version("k"))
        del floor["k"]  # the record the floor read from is replaced
        assert tracker.stable_version("k") == vv(preload=1)
        assert tracker.raw_entry("k") == vv(preload=1) and tracker.entry_count() == 1
        assert tracker.notifications == 0 and not parked.done()
        tracker.record("k", vv(dc0=1, preload=1))
        assert parked.done() and tracker.stable_version("k") == vv(dc0=1, preload=1)

    def test_adopt_never_lowers_an_entry_that_is_already_there(self):
        tracker = StabilityTracker()
        tracker.record("k", vv(dc0=3))
        tracker.adopt("k", vv(dc0=1))
        assert tracker.stable_version("k") == vv(dc0=3)
