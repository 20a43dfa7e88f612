"""Discrete-event simulation substrate.

Public surface:

- :class:`~repro.sim.kernel.Simulator` — the virtual-time event loop.
- :class:`~repro.sim.process.Future` / :class:`~repro.sim.process.Process`
  — asynchronous results and generator-based sequential processes.
- :class:`~repro.sim.rng.RngRegistry` — labelled deterministic RNG streams.
"""

from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Future, Process, all_of, n_of, spawn
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "Future",
    "Process",
    "spawn",
    "all_of",
    "n_of",
    "RngRegistry",
    "derive_seed",
]
