"""Futures and generator-based processes on top of the simulation kernel.

Protocol actors in this codebase — servers, proxies and client sessions —
are event-driven: they react to messages, and an operation in flight is a
continuation object. *Workload drivers* and scripted scenarios read much
more naturally as sequential code. A :class:`Process` wraps a generator
and drives it on the simulator:

- ``yield some_future``   → suspend until the future resolves; the
  future's value is sent back into the generator (exceptions are thrown
  into it, so ``try/except`` works as expected).
- ``yield 0.25``          → sleep for 0.25 virtual seconds.
- ``return value``        → resolves the process's own future.

A :class:`Future` is single-assignment: it resolves exactly once, with
either a value or an exception, and then notifies callbacks in
registration order at the *same* virtual instant.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

__all__ = ["Future", "Process", "all_of", "n_of"]

_PENDING = object()


class Future:
    """Single-assignment container for a value produced later in virtual time."""

    __slots__ = ("_sim", "_value", "_exception", "_callbacks", "_resolved_at")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self._resolved_at: Optional[float] = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self._value is not _PENDING or self._exception is not None

    def succeeded(self) -> bool:
        return self._value is not _PENDING

    def failed(self) -> bool:
        return self._exception is not None

    @property
    def resolved_at(self) -> Optional[float]:
        """Virtual time at which the future resolved, or None if pending."""
        return self._resolved_at

    def result(self) -> Any:
        """Return the value, re-raising a stored exception. Must be done."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("result() called on a pending future")
        return self._value

    def exception(self) -> Optional[BaseException]:
        return self._exception

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    # The resolution paths below spell ``done()`` out inline: they run
    # several times per simulated operation.

    def set_result(self, value: Any) -> None:
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("future already resolved")
        self._value = value
        self._resolved_at = self._sim.now
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("future already resolved")
        self._exception = exc
        self._resolved_at = self._sim.now
        self._fire()

    def try_set_result(self, value: Any) -> bool:
        """Resolve if still pending; returns whether this call resolved it."""
        if self._value is not _PENDING or self._exception is not None:
            return False
        self.set_result(value)
        return True

    def try_set_exception(self, exc: BaseException) -> bool:
        if self._value is not _PENDING or self._exception is not None:
            return False
        self.set_exception(exc)
        return True

    # The continuation protocol of ``Actor.request``: ``try_set_*``
    # without the verdict, for a subclass to override with its reaction.

    def rpc_reply(self, value: Any) -> None:
        if self._value is _PENDING and self._exception is None:
            self.set_result(value)

    def rpc_failed(self, exc: BaseException) -> None:
        if self._value is _PENDING and self._exception is None:
            self.set_exception(exc)

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when resolved (immediately if already done)."""
        if self._value is not _PENDING or self._exception is not None:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Resolve with the list of all results once every input resolves.

    Fails fast with the first exception among the inputs.
    """
    futures = list(futures)
    out = Future(sim)
    if not futures:
        out.set_result([])
        return out
    remaining = [len(futures)]

    def on_done(_fut: Future) -> None:
        if out.done():
            return
        if _fut.failed():
            out.try_set_exception(_fut.exception())  # type: ignore[arg-type]
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            out.set_result([f.result() for f in futures])

    for f in futures:
        f.add_callback(on_done)
    return out


def n_of(sim: Simulator, futures: Iterable[Future], n: int) -> Future:
    """Resolve with the first ``n`` results, in completion order.

    Fails once enough inputs have failed that ``n`` successes are
    impossible — the quorum-gathering primitive.
    """
    futures = list(futures)
    if n < 0 or n > len(futures):
        raise SimulationError(f"cannot take {n} of {len(futures)} futures")
    out = Future(sim)
    if n == 0:
        out.set_result([])
        return out
    succeeded: List[Any] = []
    failures = [0]
    max_failures = len(futures) - n

    def on_done(_fut: Future) -> None:
        if out.done():
            return
        if _fut.failed():
            failures[0] += 1
            if failures[0] > max_failures:
                out.try_set_exception(_fut.exception())  # type: ignore[arg-type]
            return
        succeeded.append(_fut.result())
        if len(succeeded) == n:
            out.try_set_result(list(succeeded))

    for f in futures:
        f.add_callback(on_done)
    return out


class Process(Future):
    """A generator driven over virtual time; itself a future for its return value.

    The generator may yield:

    - a :class:`Future` — suspend until it resolves,
    - an ``int``/``float`` — sleep that many virtual seconds,
    - ``None`` — yield control for one zero-delay scheduling round.
    """

    __slots__ = ("_gen", "_name")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = "") -> None:
        super().__init__(sim)
        self._gen = gen
        self._name = name or getattr(gen, "__name__", "process")
        sim.post(0.0, self._advance, None, None)

    @property
    def name(self) -> str:
        return self._name

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return  # interrupted
        try:
            if exc is not None:
                yielded = self._gen.throw(exc)
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            self.try_set_result(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via future
            self.try_set_exception(err)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if yielded is None:
            self._sim.post(0.0, self._advance, None, None)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._on_future)
        elif isinstance(yielded, (int, float)):
            self._sim.post(float(yielded), self._advance, None, None)
        else:
            self._advance(
                None,
                SimulationError(
                    f"process {self._name!r} yielded unsupported value {yielded!r}"
                ),
            )

    def _on_future(self, fut: Future) -> None:
        # Only ever a resolved future's callback, so its value is set.
        if fut._exception is not None:
            self._advance(None, fut._exception)
        else:
            self._advance(fut._value, None)


def spawn(sim: Simulator, gen: Generator[Any, Any, Any], name: str = "") -> Process:
    """Convenience wrapper: ``spawn(sim, my_generator())``."""
    return Process(sim, gen, name=name)
