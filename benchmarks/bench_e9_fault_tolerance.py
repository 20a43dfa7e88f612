"""E9 — Fault tolerance: throughput through a server failure and repair.

Paper shape: killing one storage server mid-run produces a visible
throughput dip — requests routed to the dead server time out, the
failure detector fires, chains reconfigure and stream state — after
which throughput recovers to (nearly) the pre-failure level on the
smaller cluster. Consistency is preserved throughout: the recorded
history stays causally clean up to the handful of unstable versions
that can die with the crashed server.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.baselines import build_store
from repro.bench import QUICK
from repro.checker import check_causal
from repro.metrics import render_series, render_table
from repro.workload import WorkloadRunner, workload

CRASH_AT = 1.0
RUN_FOR = 3.0


def test_e9_throughput_through_failure(scale):
    def experiment():
        store = build_store(
            "chainreaction",
            servers_per_site=scale.servers_per_site,
            chain_length=scale.chain_length,
            ack_k=scale.ack_k,
            seed=scale.seed,
        )
        victim = store.servers()[0]
        store.sim.schedule_at(CRASH_AT, victim.crash)
        spec = workload("A", record_count=scale.record_count, value_size=scale.value_size)
        runner = WorkloadRunner(
            store, spec, n_clients=scale.latency_clients, duration=RUN_FOR, warmup=0.2
        )
        return runner.run(), store

    result, store = run_once(experiment)
    series = result.timeline.series()
    before = result.timeline.rate_between(0.4, CRASH_AT)
    dip = result.timeline.rate_between(CRASH_AT, CRASH_AT + 0.6)
    after = result.timeline.rate_between(CRASH_AT + 1.2, 0.2 + RUN_FOR)
    violations = check_causal(result.history)

    print()
    print(
        render_table(
            ["phase", "ops/s"],
            [("before failure", before), ("failure window", dip), ("after repair", after)],
            title="E9: throughput around a server crash (t=1.0s)",
        )
    )
    print()
    print(render_series(series[:40], "t (s)", "ops/s", title="E9 timeline (first 4s)"))
    print(f"causal violations: {len(violations)}; op errors: {result.errors}")

    # The failure must actually hurt...
    assert dip < 0.9 * before, (before, dip)
    # ...and repair must bring throughput back on the smaller cluster.
    assert after > 0.7 * before, (before, after)
    # Consistency survives reconfiguration (tiny allowance for versions
    # that existed only on the crashed server when it died).
    assert len(violations) <= 5, [str(v) for v in violations[:5]]


def test_e9_view_change_happened(scale):
    """The failure detector must have removed the victim from the view."""
    store = build_store(
        "chainreaction",
        servers_per_site=scale.servers_per_site,
        chain_length=scale.chain_length,
        seed=scale.seed,
    )
    victim = store.servers()[0]
    manager = store.managers[store.sites[0]]
    epoch_before = manager.view.epoch
    store.sim.schedule_at(0.5, victim.crash)
    store.sim.run(until=2.0)
    assert manager.view.epoch > epoch_before
    assert victim.name not in manager.view.servers
