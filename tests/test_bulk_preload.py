"""Bulk preload is state-equivalent to the per-record protocol walk.

``ChainReactionStore.preload`` builds one shared ``Record`` per key and
installs each server's keys with one store call and one call per
tracker. :func:`reference_preload` below is the per-record loop it
replaced, kept here as the oracle: for every configuration that changes
what preload touches, twin deployments loaded one way each must end up
indistinguishable on every node.
"""

import pytest

from helpers import make_store, run_op
from repro.analysis.invariants import ChainInvariantMonitor
from repro.baselines.registry import build_store
from repro.metrics.memory import memory_census
from repro.storage.version import VersionVector, intern_str

DATA = {f"user{i:04d}": f"value-{i}" for i in range(60)}

CONFIGS = {
    "notices": dict(sites=("dc0", "dc1")),
    "notices+batch": dict(
        sites=("dc0", "dc1"), protocol_batching=True, metadata_gc=True,
        batch_flush_interval=0.025,
    ),
    "clock": dict(sites=("dc0", "dc1"), stability="clock"),
    "single-dc": dict(),
    "partial-r2-of-3": dict(sites=("dc0", "dc1", "dc2"), replication_degree=2),
    "durable": dict(sites=("dc0", "dc1"), durable_storage=True),
    "metadata-gc": dict(sites=("dc0", "dc1"), metadata_gc=True),
}


def reference_preload(store, data):
    """The pre-bulk implementation: every replica install walks the
    convergent write path and both trackers' ``record``."""
    version = VersionVector({"preload": 1})
    placement = store.config.placement()
    track = store.config.stability != "clock"
    for key, value in data.items():
        key = intern_str(key)
        for site, manager in store.managers.items():
            if placement is not None and not placement.owns(site, key):
                continue
            for server_name in manager.view.chain_for(key):
                node = store._node(site, server_name)
                node.store.apply(key, value, version, store.sim.now)
                if track:
                    node.stability.record(key, version)
                    node.global_stability.record(key, version)
                node._refresh_stable_record(key)


def node_state(node):
    state = {
        "records": [
            (r.key, r.value, r.version, r.stamp, r.updated_at)
            for r in node.store.all_records()  # insertion order included
        ],
        "checksum": node.store.checksum_state(),
        "writes_applied": node.store.writes_applied,
        "writes_ignored": node.store.writes_ignored,
        "conflicts_resolved": node.store.conflicts_resolved,
        "stable_records": sorted(node._stable_records),
    }
    for name in ("stability", "global_stability"):
        tracker = getattr(node, name)
        state[name] = (list(tracker.snapshot().items()), tracker.notifications)
    log = getattr(node.store, "log", None)
    if log is not None:
        state["log"] = sorted(
            (e.key, e.value, e.version, e.stamp) for e in log.entries()
        )
    return state


def deployment_state(store):
    census = memory_census(store)
    for gauge in ("vv_intern_pool", "event_pool"):  # process-wide, not per store
        census.pop(gauge, None)
    nodes = {(n.site, n.name): node_state(n) for n in store.servers()}
    return nodes, census


def twins(**overrides):
    return make_store(**overrides), make_store(**overrides)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bulk_preload_matches_per_record_walk(name):
    bulk, reference = twins(**CONFIGS[name])
    bulk.preload(DATA)
    reference_preload(reference, DATA)
    assert deployment_state(bulk) == deployment_state(reference)
    for node in bulk.servers():
        assert node._stable_records == {}
    assert all(bulk.converged(key) for key in DATA)


def test_one_record_object_serves_every_replica():
    store = make_store(sites=("dc0", "dc1"))
    store.preload(DATA)
    for key in DATA:
        holders = [
            n.store.get_record(key) for n in store.servers()
            if n.store.get_record(key) is not None
        ]
        assert len(holders) == 2 * store.config.chain_length
        assert all(record is holders[0] for record in holders)


def test_non_owner_sites_hold_nothing_under_partial_replication():
    store = make_store(sites=("dc0", "dc1", "dc2"), replication_degree=2)
    store.preload(DATA)
    placement = store.config.placement()
    for site in store.sites:
        held = {key for node in store.servers(site) for key in node.store.keys()}
        assert held == {key for key in DATA if placement.owns(site, key)}
    assert sum(n.store.writes_applied for n in store.servers()) == len(DATA) * 2 * 3


def test_durable_preload_survives_a_crash():
    store = make_store(sites=("dc0", "dc1"), durable_storage=True)
    store.preload(DATA)
    victim = store.servers()[0]
    before = victim.store.checksum_state()
    assert before and len(victim.store.log) == len(before)
    victim.crash()
    victim.store.clear()  # a crash loses memory, not the log
    assert victim.store.checksum_state() == ()
    assert victim.store.recover_from_log() == len(before)
    assert victim.store.checksum_state() == before


def _disturb(store):
    """Leave the deployment mid-flight: committed puts whose stability
    cascade has not finished shadow stable records and grow trackers."""
    session = store.session("dc0", "writer")
    for i in range(0, 20, 2):
        run_op(store, session.put(f"user{i:04d}", f"rewritten-{i}"))
    return session


@pytest.mark.parametrize("name", ["notices", "clock", "metadata-gc", "durable"])
def test_second_preload_over_live_state_takes_the_per_key_path(name):
    bulk, reference = twins(**CONFIGS[name])
    bulk.preload(DATA)
    reference_preload(reference, DATA)
    _disturb(bulk)
    _disturb(reference)
    assert any(node._stable_records for node in bulk.servers())
    assert deployment_state(bulk) == deployment_state(reference)
    # Overlaps loaded keys, rewritten keys and brand-new keys.
    again = {f"user{i:04d}": f"second-{i}" for i in range(10, 90)}
    bulk.preload(again)
    reference_preload(reference, again)
    assert deployment_state(bulk) == deployment_state(reference)
    bulk.run(until=bulk.sim.now + 1.0)
    reference.run(until=reference.sim.now + 1.0)
    assert deployment_state(bulk) == deployment_state(reference)
    assert bulk.sim.events_processed == reference.sim.events_processed


def test_preload_with_parked_waiters_wakes_them():
    store = make_store()
    version = VersionVector({"preload": 1})
    node = store._node("dc0", store.managers["dc0"].view.chain_for("user0000")[0])
    waiter = node.stability.wait(store.sim, "user0000", version)
    assert not waiter.done()
    store.preload(DATA)
    store.run(until=store.sim.now + 0.01)
    assert waiter.done() and waiter.result() is True
    assert node.stability.pending_waiters() == 0
    assert node.stability.notifications == len(list(node.store.keys()))


@pytest.mark.parametrize("protocol", ["eventual", "quorum", "cops"])
def test_baseline_preload_shares_the_routine(protocol):
    store = build_store(protocol, sites=("dc0", "dc1"), servers_per_site=4,
                        chain_length=3, seed=7)
    store.preload(DATA)
    version = VersionVector({"preload": 1})
    installs = 0
    for key, value in DATA.items():
        assert store.converged(key)
        for site, manager in store.managers.items():
            for name in manager.view.chain_for(key):
                record = store._node(site, name).store.get_record(key)
                assert (record.value, record.version) == (value, version)
                installs += 1
    assert sum(n.store.writes_applied for n in store.servers()) == installs
    store.preload(DATA)  # dominated duplicates are ignored, not re-applied
    assert sum(n.store.writes_ignored for n in store.servers()) == installs


@pytest.mark.parametrize("stability", ["notices", "clock"])
def test_monitor_attached_before_preload_sees_every_install(stability):
    store = make_store(sites=("dc0", "dc1"), stability=stability)
    monitor = ChainInvariantMonitor(store).attach()
    store.preload(DATA)
    installs = len(DATA) * 2 * store.config.chain_length
    assert monitor.applies_checked == installs
    assert monitor.stability_checks == (installs if stability == "notices" else 0)
    assert monitor.keys_tracked() == len(DATA)
    session = store.session("dc0")
    run_op(store, session.put("user0003", "after"))
    assert run_op(store, session.get("user0003")).value == "after"
    store.run(until=store.sim.now + 1.0)
    report = monitor.report()
    assert report.clean, report.format()
    assert report.applies_checked > installs
