"""Unit tests for futures and generator processes."""

import pytest

from repro.errors import RequestTimeout, SimulationError
from repro.sim import Future, all_of, n_of, spawn


class TestFuture:
    def test_resolves_once_with_value(self, sim):
        fut = Future(sim)
        assert not fut.done()
        fut.set_result(42)
        assert fut.done() and fut.succeeded()
        assert fut.result() == 42

    def test_double_resolution_rejected(self, sim):
        fut = Future(sim)
        fut.set_result(1)
        with pytest.raises(SimulationError):
            fut.set_result(2)

    def test_try_set_result_returns_false_when_done(self, sim):
        fut = Future(sim)
        assert fut.try_set_result(1) is True
        assert fut.try_set_result(2) is False
        assert fut.result() == 1

    def test_exception_reraised_by_result(self, sim):
        fut = Future(sim)
        fut.set_exception(ValueError("boom"))
        assert fut.failed()
        with pytest.raises(ValueError, match="boom"):
            fut.result()

    def test_result_on_pending_future_is_an_error(self, sim):
        with pytest.raises(SimulationError):
            Future(sim).result()

    def test_callback_fires_on_resolution(self, sim):
        fut = Future(sim)
        seen = []
        fut.add_callback(lambda f: seen.append(f.result()))
        fut.set_result(7)
        assert seen == [7]

    def test_callback_fires_immediately_if_already_done(self, sim):
        fut = Future(sim)
        fut.set_result(7)
        seen = []
        fut.add_callback(lambda f: seen.append(f.result()))
        assert seen == [7]

    def test_resolved_at_records_virtual_time(self, sim):
        fut = Future(sim)
        sim.schedule(2.5, fut.set_result, None)
        sim.run()
        assert fut.resolved_at == 2.5


class TestProcess:
    def test_process_sleeps_on_numeric_yield(self, sim):
        log = []

        def proc():
            log.append(sim.now)
            yield 1.0
            log.append(sim.now)
            yield 0.5
            log.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert log == [0.0, 1.0, 1.5]

    def test_process_receives_future_value(self, sim):
        fut = Future(sim)
        sim.schedule(1.0, fut.set_result, "hello")
        results = []

        def proc():
            value = yield fut
            results.append(value)

        spawn(sim, proc())
        sim.run()
        assert results == ["hello"]

    def test_return_value_resolves_process_future(self, sim):
        def proc():
            yield 0.1
            return 99

        p = spawn(sim, proc())
        sim.run()
        assert p.result() == 99

    def test_future_exception_thrown_into_generator(self, sim):
        fut = Future(sim)
        sim.schedule(1.0, fut.set_exception, RequestTimeout("late"))
        caught = []

        def proc():
            try:
                yield fut
            except RequestTimeout as exc:
                caught.append(str(exc))
            return "recovered"

        p = spawn(sim, proc())
        sim.run()
        assert caught == ["late"]
        assert p.result() == "recovered"

    def test_uncaught_exception_fails_process(self, sim):
        def proc():
            yield 0.1
            raise ValueError("dead")

        p = spawn(sim, proc())
        sim.run()
        assert p.failed()
        with pytest.raises(ValueError):
            p.result()

    def test_yield_none_yields_one_round(self, sim):
        order = []

        def a():
            order.append("a1")
            yield None
            order.append("a2")

        def b():
            order.append("b1")
            yield None
            order.append("b2")

        spawn(sim, a())
        spawn(sim, b())
        sim.run()
        assert order == ["a1", "b1", "a2", "b2"]

    def test_unsupported_yield_fails_process(self, sim):
        def proc():
            yield "not a future"

        p = spawn(sim, proc())
        sim.run()
        assert p.failed()

    def test_nested_process_await(self, sim):
        def inner():
            yield 0.5
            return 10

        def outer():
            value = yield spawn(sim, inner())
            return value * 2

        p = spawn(sim, outer())
        sim.run()
        assert p.result() == 20


class TestCombinators:
    def test_all_of_collects_results_in_input_order(self, sim):
        futures = [Future(sim) for _ in range(3)]
        sim.schedule(3.0, futures[0].set_result, "a")
        sim.schedule(1.0, futures[1].set_result, "b")
        sim.schedule(2.0, futures[2].set_result, "c")
        combined = all_of(sim, futures)
        sim.run()
        assert combined.result() == ["a", "b", "c"]

    def test_all_of_empty_resolves_immediately(self, sim):
        assert all_of(sim, []).result() == []

    def test_all_of_fails_fast(self, sim):
        futures = [Future(sim) for _ in range(2)]
        sim.schedule(1.0, futures[0].set_exception, ValueError("x"))
        combined = all_of(sim, futures)
        sim.run()
        assert combined.failed()

    def test_n_of_resolves_at_quorum(self, sim):
        futures = [Future(sim) for _ in range(3)]
        sim.schedule(1.0, futures[2].set_result, "c")
        sim.schedule(2.0, futures[0].set_result, "a")
        sim.schedule(9.0, futures[1].set_result, "b")
        quorum = n_of(sim, futures, 2)
        sim.run(until=3.0)
        assert quorum.done()
        assert quorum.result() == ["c", "a"]

    def test_n_of_fails_when_quorum_impossible(self, sim):
        futures = [Future(sim) for _ in range(3)]
        sim.schedule(1.0, futures[0].set_exception, ValueError("x"))
        sim.schedule(2.0, futures[1].set_exception, ValueError("y"))
        quorum = n_of(sim, futures, 2)
        sim.run()
        assert quorum.failed()

    def test_n_of_tolerates_allowed_failures(self, sim):
        futures = [Future(sim) for _ in range(3)]
        sim.schedule(1.0, futures[0].set_exception, ValueError("x"))
        sim.schedule(2.0, futures[1].set_result, "b")
        sim.schedule(3.0, futures[2].set_result, "c")
        quorum = n_of(sim, futures, 2)
        sim.run()
        assert quorum.result() == ["b", "c"]

    def test_n_of_validates_bounds(self, sim):
        with pytest.raises(SimulationError):
            n_of(sim, [Future(sim)], 2)
