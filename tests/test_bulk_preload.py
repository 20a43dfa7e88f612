"""A preloaded record answers for itself; two older preloads are the oracles.

``ChainReactionStore.preload`` builds one shared ``key → value`` table at
one version, the *base*, and hands every server the base plus the rule
for which of its keys that server holds (its name in the key's chain
under the preload-time view, its site an owner): a server's own table
stays empty until something is written to it, and a key's ``Record`` is
built on first touch, then shared by every replica. On the notices
plane preload writes *no* tracker state either: a record installed
converged is DC-stable and globally stable by construction
(``NoticesPlane.mark_converged``) and gets tracker entries only at its
first overwrite. The clock plane keeps no trackers at all.

Two references stay here as oracles, and twin deployments loaded one
way each must hold the same records in the same order, count the same
writes, log the same entries and give the same **answers** on every
node, whatever representation the answers come from:

- :func:`reference_preload`, the per-record loop — it walks
  ``store.apply`` and both trackers' ``record`` per replica, i.e. it
  builds the explicit per-key entries older trees kept;
- ``helpers.install_per_server``, the per-server grouping — every
  server's own table takes its group of keys, as the tree before the
  base did, and no store reads through a base; it is patched over
  ``install_converged`` (:func:`per_server`).
"""

import dataclasses
import functools
import hashlib

import pytest

import repro.baselines.common as baseline_common
import repro.core.datastore as chainreaction_datastore
from helpers import build, install_per_server, make_store, run_op
from repro.analysis.invariants import ChainInvariantMonitor
from repro.analysis.sanitize import MessageTap
from repro.baselines.registry import build_store
from repro.cluster.ring import HashRing
from repro.faults import engine as fault_engine
from repro.faults.campaign import CAMPAIGNS
from repro.metrics.memory import memory_census
from repro.storage.version import ZERO, VersionVector, intern_str
from repro.workload import WorkloadRunner, workload

DATA = {f"user{i:04d}": f"value-{i}" for i in range(60)}
#: overlaps loaded keys, rewritten keys and brand-new keys
AGAIN = {f"user{i:04d}": f"second-{i}" for i in range(10, 90)}
#: every key a twin is asked about: loaded, rewritten, new, never seen
PROBES = sorted({*DATA, *AGAIN, "ghost0000", "ghost0001"})

CONFIGS = {
    "notices": dict(sites=("dc0", "dc1")),
    "notices+batch": dict(sites=("dc0", "dc1"), stability="notices+batch"),
    "clock": dict(sites=("dc0", "dc1"), stability="clock"),
    "single-dc": dict(),
    "partial-r2-of-3": dict(sites=("dc0", "dc1", "dc2"), replication_degree=2),
    "durable": dict(sites=("dc0", "dc1"), durable_storage=True),
    # the sealing plane on one DC, where a key seals on DC-stability alone
    "metadata-gc": dict(stability="notices+batch"),
}


def reference_preload(store, data):
    """The pre-bulk implementation: every replica install walks the
    convergent write path and both trackers' ``record``."""
    version = VersionVector({"preload": 1})
    placement = store.config.placement()
    for key, value in data.items():
        key = intern_str(key)
        for site, manager in store.managers.items():
            if not placement.owns(site, key):
                continue
            for server_name in manager.view.chain_for(key):
                node = store._node(site, server_name)
                node.store.apply(key, value, version, store.sim.now)
                for tracker in trackers(node):
                    tracker.record(key, version)
                node._refresh_stable_record(key)


def trackers(node):
    """The node's DC and global stability trackers; none on the clock plane."""
    plane = node.plane
    return [getattr(plane, name) for name in ("stability", "global_stability") if hasattr(plane, name)]


def answers(node):
    """What the node says about every probe key — the protocol-visible
    face of the trackers, floors and shadow map together."""
    out = {}
    for key in PROBES:
        version = node.store.version_of(key)
        dc_stable = node.plane.record_is_stable(key, version)
        out[key] = (
            *[tracker.stable_version(key) for tracker in trackers(node)],
            dc_stable,
            node.plane.record_is_global(key, version, dc_stable),
            node._stable_entry(key),
        )
    return out


def held(node):
    """Everything the node stores, tracker representation excluded."""
    state = {
        "records": [
            (r.key, r.value, r.version, r.stamp, r.updated_at)
            for r in node.store.all_records()  # insertion order included
        ],
        "checksum": node.store.checksum_state(),
        "writes_applied": node.store.writes_applied,
        "writes_ignored": node.store.writes_ignored,
        "conflicts_resolved": node.store.conflicts_resolved,
    }
    log = getattr(node.store, "log", None)
    if log is not None:
        state["log"] = sorted(
            (e.key, e.value, e.version, e.stamp) for e in log.entries()
        )
    return state


def tracker_entries(store):
    return sum(tracker.entry_count() for n in store.servers() for tracker in trackers(n))


def assert_twins_agree(twin, reference):
    for mine, theirs in zip(twin.servers(), reference.servers()):
        where = f"{mine.site}:{mine.name}"
        assert held(mine) == held(theirs), where
        assert answers(mine) == answers(theirs), where
    censuses = []
    for store in (twin, reference):
        census = memory_census(store)
        for gauge in ("vv_intern_pool", "event_pool"):  # process-wide, not per store
            census.pop(gauge, None)
        censuses.append(census)
    # The one section allowed to differ, and only downwards: the twin
    # never holds an entry the explicit representation does not.
    assert censuses[0].pop("stability")["objects"] <= censuses[1].pop("stability")["objects"]
    assert censuses[0] == censuses[1]
    assert tracker_entries(twin) <= tracker_entries(reference)


def twins(**overrides):
    return make_store(**overrides), make_store(**overrides)


def _disturb(store):
    """Leave the deployment mid-flight: committed puts whose stability
    cascade has not finished shadow stable records and grow trackers."""
    session = store.session("dc0", "writer")
    for i in range(0, 20, 2):
        run_op(store, session.put(f"user{i:04d}", f"rewritten-{i}"))
    return session


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bulk_preload_matches_per_record_walk(name):
    twin, reference = twins(**CONFIGS[name])
    twin.preload(DATA)
    reference_preload(reference, DATA)
    assert_twins_agree(twin, reference)
    assert tracker_entries(twin) == 0  # every plane: nothing per key at rest
    for node in twin.servers():
        assert node._stable_records == {}
    assert all(twin.converged(key) for key in DATA)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_second_preload_over_live_state_takes_the_per_key_path(name):
    twin, reference = twins(**CONFIGS[name])
    twin.preload(DATA)
    reference_preload(reference, DATA)
    _disturb(twin)
    _disturb(reference)
    # (A forwarded put's cascade is over before its reply crosses the
    # WAN, so the partial config is mid-flight only between sites.)
    assert name == "partial-r2-of-3" or any(n._stable_records for n in twin.servers())
    assert_twins_agree(twin, reference)

    # Loaded, rewritten and brand-new keys: the store arbitrates the
    # first two kinds, and those take the per-key ``record``.
    twin.preload(AGAIN)
    reference_preload(reference, AGAIN)
    assert_twins_agree(twin, reference)

    twin.run(until=twin.sim.now + 1.0)
    reference.run(until=reference.sim.now + 1.0)
    assert_twins_agree(twin, reference)
    assert twin.sim.events_processed == reference.sim.events_processed


#: replicas of a key per config whose trackers keep what they learn
#: (not the sealing plane, not the clock plane)
KEEPING = {"notices": 6, "single-dc": 3, "partial-r2-of-3": 6, "durable": 6}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trackers_hold_only_keys_written_since_preload(name):
    store = make_store(**CONFIGS[name])
    store.preload(DATA)
    assert tracker_entries(store) == 0
    session = store.session("dc0", "writer")
    written = [f"user{i:04d}" for i in range(0, 24, 3)]
    for key in written:
        run_op(store, session.put(key, "once"))
        run_op(store, session.put(key, "twice"))
    store.run(until=store.sim.now + 2.0)
    # Two trackers per replica, one entry per written key; sealing takes
    # them away again and the clock plane never had any.
    assert tracker_entries(store) == 2 * len(written) * KEEPING.get(name, 0)
    for node in store.servers():
        for key in DATA:
            if node.store.get_record(key) is not None:
                assert node.plane.record_is_stable(key, node.store.version_of(key))


def test_install_converged_reports_only_the_keys_a_store_arbitrated():
    from repro.cluster.server_base import install_converged

    store = make_store(sites=("dc0", "dc1"))
    version = VersionVector({"preload": 1})
    views = {site: manager.view for site, manager in store.managers.items()}

    def install(data):
        return install_converged(
            data, version, store.sim.now, views, store._nodes_by_name, store.config.placement()
        )

    fresh = install(DATA)
    assert set(fresh) == {"dc0", "dc1"}
    assert all(set(fresh[site]) == set(store._nodes_by_name[site]) for site in fresh)
    assert all(keys == [] for per_site in fresh.values() for keys in per_site.values())
    again = install(AGAIN)  # user0010..0059 are held already, the rest are new
    for site, per_site in again.items():
        for name, keys in per_site.items():
            held_before = [k for k in AGAIN if k in DATA and name in views[site].chain_for(k)]
            assert keys == held_before
    assert sum(len(keys) for per_site in again.values() for keys in per_site.values()) == 50 * 6


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_fresh_deployment_keeps_nothing_per_server(name):
    store = make_store(**CONFIGS[name])
    store.preload(DATA)
    base = store.servers()[0].store._base
    assert list(base.entries.items()) == list(DATA.items())  # nothing touched yet
    for node in store.servers():
        assert node.store._base is base
        assert node.store._data == {}
        # No other per-key container stands in for the own table.
        for attr, value in vars(node.store).items():
            if isinstance(value, (dict, list, set, tuple)) and value is not base:
                assert not value, attr


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
        held_here = {key for node in store.servers(site) for key in node.store.keys()}
        assert held_here == {key for key in DATA if placement.owns(site, key)}
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


def test_wiped_durable_node_answers_from_the_floor_again_after_replay():
    # Replay re-creates every Record object: a rule on record identity
    # (or a flag slot) would under-report here, the version rule cannot.
    store = make_store(sites=("dc0", "dc1"), durable_storage=True)
    store.preload(DATA)
    victim = store.servers()[0]
    records = {key: victim.store.get_record(key) for key in victim.store.keys()}
    before = answers(victim)
    assert any(stable for _, _, stable, _, entry in before.values() if entry is not None)
    victim.crash()
    victim.store.clear()
    assert all(victim.plane.stability.stable_version(key) == ZERO for key in PROBES)
    victim.recover()  # replays the log before re-joining
    assert answers(victim) == before
    assert all(victim.store.get_record(key) is not old for key, old in records.items())
    assert victim.plane.stability.entry_count() == victim.plane.global_stability.entry_count() == 0


def test_preload_with_parked_waiters_wakes_them():
    store = make_store()
    version = VersionVector({"preload": 1})
    node = store._node("dc0", store.managers["dc0"].view.chain_for("user0000")[0])
    waiter = node.plane.stability.wait(store.sim, "user0000", version)
    assert not waiter.done()
    store.preload(DATA)
    store.run(until=store.sim.now + 0.01)
    assert waiter.done() and waiter.result() is True
    assert node.plane.stability.pending_waiters() == 0
    assert node.plane.stability.notifications == len(list(node.store.keys()))


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
    # Was ``installs`` on the notices plane while preload wrote one
    # tracker entry per replica install; marking a node converged is one
    # grounded claim per node, not a stability notice per key.
    assert monitor.stability_checks == 0
    assert monitor.keys_tracked() == len(DATA)
    session = store.session("dc0")
    run_op(store, session.put("user0003", "after"))
    assert run_op(store, session.get("user0003")).value == "after"
    store.run(until=store.sim.now + 1.0)
    report = monitor.report()
    assert report.clean, report.format()
    assert report.applies_checked > installs
    assert (report.stability_checks > 0) == (stability == "notices")


# ----------------------------------------------------------------------
# whole runs: the twin is message-for-message the reference
# ----------------------------------------------------------------------
def _digest(trace):
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def _as_reference(store):
    """Make ``store.preload`` the per-record walk (the explicit-entry
    representation), for harnesses that preload by themselves."""
    store.preload = functools.partial(reference_preload, store)
    return store


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_twins_send_the_same_messages_through_a_workload_window(name):
    runs = []
    for prepare in (lambda store: store, _as_reference):
        store = prepare(make_store(**CONFIGS[name]))
        tap = MessageTap().attach(store.network)
        result = WorkloadRunner(
            store, workload("A", record_count=40), n_clients=4,
            duration=0.4, warmup=0.1, drain=0.5,
        ).run()
        runs.append((_digest(tap.entries), len(tap.entries),
                     store.sim.events_processed, result.ops_completed))
    assert runs[0] == runs[1]


def _campaign_twins(spec, seed, monkeypatch):
    twin = fault_engine.run_campaign(spec, seed, capture_trace=True)
    original = fault_engine.build_store
    monkeypatch.setattr(
        fault_engine, "build_store", lambda *a, **kw: _as_reference(original(*a, **kw))
    )
    reference = fault_engine.run_campaign(spec, seed, capture_trace=True)
    return twin, reference


@pytest.mark.parametrize("overrides", [{}, {"stability": "notices+batch"}], ids=["notices", "notices+batch"])
def test_twins_send_the_same_messages_through_crash_head(overrides, monkeypatch):
    spec = dataclasses.replace(CAMPAIGNS["crash-head"], clients=4, overrides=overrides)
    twin, reference = _campaign_twins(spec, 42, monkeypatch)
    assert _digest(twin.trace) == _digest(reference.trace)
    assert twin.events_processed == reference.events_processed
    assert twin.clean and reference.clean


def test_a_new_chain_member_vouches_globally_for_a_transferred_preload_record():
    """The one behavioural difference of the converged rule, pinned.

    ``StateTransfer`` carries DC-stability but not global stability, so
    with explicit entries a server that *joins* a chain answers
    ``globally=False`` for a never-rewritten preloaded record until the
    key's next write — an under-report: the record is on every replica
    of every DC by construction. The rule is on the version, so the new
    member answers ``True`` and readers drop the dependency."""
    twin, reference = twins(sites=("dc0", "dc1"))
    twin.preload(DATA)
    reference_preload(reference, DATA)
    joined = {}
    for store in (twin, reference):
        before = {key: store.managers["dc0"].view.chain_for(key) for key in DATA}
        store._node("dc0", before["user0000"][0]).crash()
        store.run(until=store.sim.now + 1.5)
        view = store.managers["dc0"].view
        joined[store] = [
            (store._node("dc0", name), key)
            for key in DATA for name in view.chain_for(key) if name not in before[key]
        ]
        assert joined[store]
    for store, globally in ((twin, True), (reference, False)):
        for node, key in joined[store]:
            version = node.store.version_of(key)
            assert version == VersionVector({"preload": 1})
            assert node.plane.record_is_stable(key, version)
            assert node.plane.record_is_global(key, version, True) is globally


def test_geo_view_change_corner_only_ever_drops_dependencies(monkeypatch):
    """Whole-run face of the corner above: ``rolling-crashes`` on two
    DCs is the one built-in campaign shape whose trace differs from the
    explicit-entry reference. The first message that differs is a
    put-request carrying one dependency entry fewer; both runs are
    causally clean and monitor-clean."""
    spec = dataclasses.replace(CAMPAIGNS["rolling-crashes"], sites=("dc0", "dc1"))
    twin, reference = _campaign_twins(spec, 42, monkeypatch)
    assert twin.clean and reference.clean
    first = next(i for i, (a, b) in enumerate(zip(twin.trace, reference.trace)) if a != b)
    mine, theirs = twin.trace[first], reference.trace[first]
    assert mine[:4] == theirs[:4] and mine[3] == "put-request"
    assert mine[4] < theirs[4]
    assert sum(e[4] for e in twin.trace) <= sum(e[4] for e in reference.trace)


# ----------------------------------------------------------------------
# the per-server twin: one shared base against one table per server
# ----------------------------------------------------------------------
def per_server(store, data, monkeypatch):
    """Preload ``store`` through ``helpers.install_per_server``."""
    with monkeypatch.context() as patch:
        patch.setattr(chainreaction_datastore, "install_converged", install_per_server)
        patch.setattr(baseline_common, "install_converged", install_per_server)
        store.preload(data)


def assert_same_holdings(twin, reference):
    for mine, theirs in zip(twin.servers(), reference.servers()):
        assert held(mine) == held(theirs), f"{mine.site}:{mine.name}"
        assert_held_under_the_preload_ring(twin, mine)
    assert twin.sim.events_processed == reference.sim.events_processed


def assert_held_under_the_preload_ring(store, node):
    """A server reading through the base holds the base keys whose chain
    under the *preload-time* ring (every server of the site) names it,
    whatever view it is at now."""
    base, holds = node.store.base, node.store.holds
    if base is None:
        return
    preload_ring = HashRing(tuple(store._nodes_by_name[node.site]), node.view.virtual_nodes)
    length = node.view.chain_length
    assert [key for key in base.entries if holds(key)] == [
        key for key in base.entries if node.name in preload_ring.place(key, length)
    ], f"{node.site}:{node.name} at epoch {node.view.epoch}"


def both(twin, reference, step):
    for store in (twin, reference):
        step(store)
    assert_same_holdings(twin, reference)


def test_a_new_chain_member_answers_none_until_its_transfer_lands(monkeypatch):
    """The base rule is read off the preload-time view: a server that a
    view change makes a member of a preloaded key's chain holds nothing
    for it until a ``StateTransfer`` brings the record, as a server with
    its own table does."""
    twin, reference = twins(sites=("dc0", "dc1"))
    twin.preload(DATA)
    per_server(reference, DATA, monkeypatch)
    view = twin.managers["dc0"].view
    victim = view.chain_for("user0000")[0]
    after = dataclasses.replace(
        view, epoch=view.epoch + 1, servers=tuple(s for s in view.servers if s != victim)
    )
    joined = [
        (name, key) for key in DATA
        for name in after.chain_for(key) if name not in view.chain_for(key)
    ]
    assert joined
    member = joined[0][0]
    keys = [key for name, key in joined if name == member]

    def until_member_sees_the_change(store):
        store._node("dc0", victim).crash()
        node = store._node("dc0", member)
        while node.view.epoch == view.epoch:
            assert store.sim.step()
        # The view change has landed; no peer's transfer has yet.
        assert node.syncing
        assert all(node.store.get_record(key) is None for key in keys)

    both(twin, reference, until_member_sees_the_change)
    both(twin, reference, lambda store: store.run(until=store.sim.now + 1.0))
    for store in (twin, reference):
        node = store._node("dc0", member)
        assert node.view.epoch > view.epoch and not node.syncing
        assert all(node.store.version_of(key) == VersionVector({"preload": 1}) for key in keys)


@pytest.mark.parametrize("durable", [False, True], ids=["clear", "log-replay"])
def test_a_wiped_server_matches_its_per_server_twin(durable, monkeypatch):
    twin, reference = twins(sites=("dc0", "dc1"), durable_storage=durable)
    twin.preload(DATA)
    per_server(reference, DATA, monkeypatch)
    both(twin, reference, _disturb)
    view = twin.managers["dc0"].view
    victim = view.chain_for("user0000")[1]
    mine = [key for key in DATA if victim in view.chain_for(key)]

    def wipe(store):
        node = store._node("dc0", victim)
        node.crash()
        node.store.clear()  # a crash loses memory (and the base), not the log
        assert node.store.checksum_state() == () and node.store._base is None

    both(twin, reference, wipe)
    both(twin, reference, lambda store: store.run(until=store.sim.now + 0.5))
    both(twin, reference, lambda store: store._node("dc0", victim).recover())
    if durable:  # recovery replayed the log before anything else arrived
        assert twin._node("dc0", victim).store.recoveries == 1
        assert all(twin._node("dc0", victim).store.get_record(key) for key in mine)
    both(twin, reference, lambda store: store.run(until=store.sim.now + 1.5))
    assert all(twin.converged(key) for key in DATA)


def test_eventual_anti_entropy_reads_the_base_like_its_own_table(monkeypatch):
    twin, reference = (build("eventual", sites=("dc0", "dc1")) for _ in range(2))
    twin.preload(DATA)
    per_server(reference, DATA, monkeypatch)
    taps = [MessageTap().attach(store.network) for store in (twin, reference)]

    def write(store):
        session = store.session("dc0", "writer")
        for i in range(0, 90, 7):
            run_op(store, session.put(f"user{i:04d}", f"eventual-{i}"))

    both(twin, reference, write)
    for store in (twin, reference):
        store.run(until=store.sim.now + 1.2)  # two anti-entropy rounds
    assert_same_holdings(twin, reference)
    assert _digest(taps[0].entries) == _digest(taps[1].entries)
    assert any(e[3] == "ev-ae-records" for e in taps[0].entries)
    nodes = [(a.store, b.store) for a, b in zip(twin.servers(), reference.servers())]
    peer = nodes[-1][1].digest()
    for mine, theirs in nodes:
        assert list(mine.digest().items()) == list(theirs.digest().items())
        assert mine.records_newer_than(peer) == theirs.records_newer_than(peer)
        assert mine.records_newer_than({}) == theirs.records_newer_than({})
