"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_delay(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_callback_arguments_passed(self, sim):
        got = []
        sim.schedule(0.1, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_call_soon_runs_at_current_instant(self, sim):
        times = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]


class TestOrdering:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_equal_times_fire_fifo(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_nested_scheduling_preserves_order(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.schedule(1.0, lambda: order.append("sibling"))
        sim.run()
        assert order == ["outer", "sibling", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancelled_events_not_counted_processed(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.events_processed == 1

    def test_pending_events_excludes_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events() == 1

    def test_a_cancelled_handle_keeps_nothing_it_would_have_called_alive(self, sim):
        class Owner:
            def fire(self, payload):
                raise AssertionError("cancelled")

        owner, payload = Owner(), Owner()
        refs = weakref.ref(owner), weakref.ref(payload)
        handle = sim.schedule(1.0, owner.fire, payload)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        del owner, payload
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert len(sim._heap) == 2  # the entry itself is still in the heap
        sim.run()
        assert sim.events_processed == 1


class TestRun:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_resumable(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        sim.run()
        assert fired == [1, 5]

    def test_run_advances_clock_to_until_even_when_idle(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_returns_final_time(self, sim):
        sim.schedule(3.0, lambda: None)
        assert sim.run() == 3.0

    def test_max_events_guards_livelock(self, sim):
        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=1000)

    def test_run_is_not_reentrant(self, sim):
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_empty_run_is_noop(self, sim):
        assert sim.run() == 0.0


class TestOwnershipRecycling:
    def test_owned_handle_never_recycled(self):
        sim = Simulator()
        ev = sim.schedule(0.1, lambda: None)
        sim.run()
        # The holder still owns the handle, so the kernel must not hand
        # the same object to a future schedule() call.
        assert sim.event_pool_stats()["free"] == 0
        ev2 = sim.schedule(0.2, lambda: None)
        assert ev2 is not ev

    def test_released_handle_recycled_after_fire(self):
        sim = Simulator()
        ev = sim.schedule(0.1, lambda: None)
        ev.release()
        sim.run()
        assert sim.event_pool_stats()["free"] == 1
        ev2 = sim.schedule(0.2, lambda: None)
        assert ev2 is ev  # the freelist handed the same object back
        assert ev2.owned
        assert sim.event_pool_stats()["reused"] == 1

    def test_late_release_after_fire_is_harmless_noop(self):
        sim = Simulator()
        ev = sim.schedule(0.1, lambda: None)
        sim.run()
        ev.release()  # fired while owned: recycling moment already passed
        assert sim.event_pool_stats()["free"] == 0
        assert sim.schedule(0.2, lambda: None) is not ev

    def test_cancel_then_release_recycles(self):
        # The with_timeout pattern: the done-callback cancels its timer
        # and releases the handle; the cancelled entry is recycled when
        # the heap reaches it.
        sim = Simulator()
        fired = []
        ev = sim.schedule(0.1, fired.append, 1)
        sim.schedule(0.2, fired.append, 2).release()
        ev.cancel()
        ev.release()
        sim.run()
        assert fired == [2]
        assert sim.event_pool_stats()["free"] == 2

    def test_recycled_handle_carries_no_stale_callback(self):
        # Refurbishment must clear callback/args so a recycled handle
        # can never re-fire its previous assignment.
        sim = Simulator()
        fired = []
        ev = sim.schedule(0.1, fired.append, "old")
        ev.release()
        sim.run()
        ev2 = sim.schedule(0.1, fired.append, "new")
        assert ev2 is ev
        sim.run()
        assert fired == ["old", "new"]

    def test_post_path_allocates_no_handles(self):
        # post() is the handle-free hot path: it enqueues a bare tuple,
        # so no ScheduledEvent is created and the freelist is untouched.
        sim = Simulator()
        for i in range(5):
            sim.post(0.01 * (i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5
        stats = sim.event_pool_stats()
        assert stats["free"] == 0
        assert stats["reused"] == 0

    def test_no_refcount_inspection_in_kernel_source(self):
        # The heuristic this flag replaced must stay gone: recycling
        # keyed on refcounts depends on who else happens to hold the
        # handle (a debugger, a traceback, another runtime).
        import inspect

        from repro.kernelcore import eventcore

        assert "getrefcount" not in inspect.getsource(eventcore)
