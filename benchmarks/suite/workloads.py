"""The four standing workloads and how each is built from the public API.

Every workload is a closed loop (YCSB style, as in the paper): ``clients``
simulated sessions, one outstanding operation each, inside one
single-threaded OS process. All four run the ``chainreaction`` protocol
on 4 servers per site with R=3, k=2 and 64-byte values; they differ in
the properties the layers' costs depend on — site count, read/write
mix, stabilization plane, and working-set size against the 8 192-entry
version-vector intern pool.

Why each was chosen is recorded once, in ``BENCHMARK.json`` (``why``)
and at length in ``README.md``.

``virtual_s`` is the measured window in *simulated* seconds at the
reference budget (``--seconds 5``); the window scales linearly with
``--seconds`` so one budget-second is roughly one wall-second of run
phase on the host the sizes were taken on. Simulated metrics are a
deterministic function of ``(workload, seed, seconds)``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.baselines.registry import build_store
from repro.workload.driver import WorkloadRunner
from repro.workload.ycsb import WorkloadSpec

__all__ = ["REFERENCE_SECONDS", "WORKLOADS", "Workload", "by_name"]

#: the ``--seconds`` budget at which ``virtual_s`` below applies
REFERENCE_SECONDS = 5.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    sites: Tuple[str, ...]
    read: float
    update: float
    distribution: str
    records: int
    clients: int
    virtual_s: float
    warmup_s: float
    drain_s: float
    #: timed set-ups in the measured pass (the verification pass adds one)
    setups: int
    overrides: Optional[Dict[str, object]] = None

    def sized(self, seconds: float, smoke: bool) -> "Workload":
        """This workload at a ``--seconds`` budget; ``smoke`` additionally
        shrinks the large keyspace and the warm-up so four workloads
        finish in <30 s (the drain stays: convergence needs it)."""
        sized = dataclasses.replace(
            self, virtual_s=self.virtual_s * seconds / REFERENCE_SECONDS
        )
        if smoke:
            sized = dataclasses.replace(
                sized, records=min(self.records, 10_000), warmup_s=self.warmup_s / 5
            )
        return sized

    def build(self, seed: int) -> Any:
        return build_store(
            "chainreaction",
            sites=self.sites,
            servers_per_site=4,
            chain_length=3,
            ack_k=2,
            seed=seed,
            overrides=self.overrides,
        )

    def runner(self, store: Any, record_history: bool, virtual_s: float) -> WorkloadRunner:
        spec = WorkloadSpec(
            self.name,
            read_proportion=self.read,
            update_proportion=self.update,
            record_count=self.records,
            distribution=self.distribution,
            value_size=64,
        )
        return WorkloadRunner(
            store,
            spec,
            n_clients=self.clients,
            duration=virtual_s,
            warmup=self.warmup_s,
            drain=self.drain_s,
            record_history=record_history,
            # Larger than any window here, so percentiles are exact
            # rather than reservoir-sampled.
            reservoir_capacity=1 << 17,
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="ycsb-b-1dc",
        sites=("dc0",),
        read=0.95,
        update=0.05,
        distribution="zipfian",
        records=10_000,
        clients=16,
        virtual_s=2.4,
        warmup_s=0.1,
        drain_s=0.5,
        setups=2,
    ),
    Workload(
        name="geo-write-notices",
        sites=("dc0", "dc1"),
        read=0.10,
        update=0.90,
        distribution="scrambled",
        records=10_000,
        clients=8,
        virtual_s=1.0,
        warmup_s=0.1,
        drain_s=0.5,
        setups=2,
        overrides={"stability": "notices"},
    ),
    Workload(
        name="geo-write-clock",
        sites=("dc0", "dc1"),
        read=0.10,
        update=0.90,
        distribution="scrambled",
        records=10_000,
        clients=8,
        virtual_s=1.0,
        warmup_s=0.1,
        drain_s=0.5,
        setups=2,
        overrides={"stability": "clock"},
    ),
    Workload(
        name="keyspace-1e5",
        sites=("dc0", "dc1", "dc2", "dc3"),
        read=0.70,
        update=0.30,
        distribution="scrambled",
        records=100_000,
        clients=100,
        virtual_s=0.2,
        warmup_s=0.05,
        drain_s=0.25,
        setups=1,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)
