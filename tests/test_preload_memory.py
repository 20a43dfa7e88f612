"""Preload keeps values, not Records: a memory guard and what it must not cost.

A converged install is one :class:`~repro.storage.store.ConvergedBase`
shared by every replica: one ``key → value`` table at one version, whose
slot for a key holds the key's shared ``Record`` from the first time some
replica looks it up (docs/PERFORMANCE.md §21). These tests pin the
memory that buys, that only a lookup builds a Record, and that the
result still matches a deployment preloaded one table per server.

Preload places no key either: a key's chain is computed when the run
first routes it, and walks over the base (census, counts, iteration, a
durable install) place keys without memoizing them, so the ring's chain
memo holds only what the run routed (docs/PERFORMANCE.md §23).
"""

import gc
import hashlib
import tracemalloc

import pytest

import repro.cluster.membership as membership
import repro.cluster.placement as placement
import repro.core.datastore as chainreaction_datastore
from helpers import install_per_server, make_store, touched
from repro.analysis.sanitize import MessageTap
from repro.metrics.memory import memory_census
from repro.storage.logstore import DurableStore
from repro.storage.store import installed
from repro.storage.version import clear_intern_pool
from repro.workload import WorkloadRunner, workload
from test_bulk_preload import held

FOUR_DCS = ("dc0", "dc1", "dc2", "dc3")

#: retained preload bytes per key, 4 DCs x 10^4 keys. A Record per key
#: (72 B plus its table slot) read 138 B/key on CPython 3.11 and 166 on
#: 3.9; values plus one shared version read 66 and 94.
BYTES_PER_KEY_BOUND = 110


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Start from an empty intern pool, as a fresh process does, and leave
    one: 10⁴ preloaded keys would otherwise fill the bounded pool for
    every later test."""
    clear_intern_pool()
    yield
    clear_intern_pool()


@pytest.fixture
def fresh_rings(monkeypatch):
    """An empty ring cache: rings (and their chain memos) are shared by
    every deployment with the same servers, earlier tests' included."""
    monkeypatch.setattr(membership, "_RING_CACHE", {})


def _memo(store):
    """The keys the chain memos of ``store``'s current rings hold."""
    views = [manager.view for manager in store.managers.values()]
    return set().union(*(view.ring().routed(view.chain_length) for view in views))


def _shard_memo(store):
    """The keys the shard catalog's memo holds (a full-replication
    catalog has none)."""
    return set(getattr(store.config.placement(), "_shard_cache", ()))


def _base(store):
    (base,) = {id(n.store._base): n.store._base for n in store.servers()}.values()
    return base


def _run(store):
    """A seeded YCSB-A run over 200 preloaded keys, every op recorded."""
    return WorkloadRunner(
        store, workload("A", record_count=200), n_clients=6,
        duration=0.4, warmup=0.0, drain=0.5,
    ).run()


def test_preload_retains_fewer_bytes_per_key_than_a_record_each():
    keys = 10_000
    store = make_store(sites=FOUR_DCS)
    data = {f"user{i:06d}": f"value-{i}" for i in range(keys)}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store.preload(data)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / keys < BYTES_PER_KEY_BOUND, retained / keys
    assert touched(_base(store)) == []


def test_a_seeded_run_shares_only_the_keys_it_touched():
    store = make_store(sites=("dc0", "dc1"))
    result = _run(store)
    base = _base(store)
    shared = touched(base)
    assert shared and set(shared) <= set(result.history.keys())
    assert len(shared) < len(base.entries)
    for key in shared:
        record = base.entries[key]
        assert (record.key, record.value, record.version, record.stamp) == (
            key, "y" * 128, base.version, base.stamp
        )


@pytest.mark.parametrize("after_run", [False, True], ids=["fresh", "after-run"])
def test_iteration_counts_and_the_census_touch_nothing(after_run):
    store = make_store(sites=("dc0", "dc1"), durable_storage=True)
    if after_run:
        _run(store)
    else:
        store.preload({f"user{i:04d}": i for i in range(200)})
    base = _base(store)
    before = dict(base.entries)
    for node in store.servers():
        records = node.store.all_records()
        assert len(records) == sum(1 for _ in node.store.items())
        assert node.store.writes_applied >= len(records)
        held_keys = list(installed(base, node.store._holds, []))
        assert held_keys and all(key in node.store.digest() for key in held_keys)
        assert list(node.store.record_sizes()) == [r.size_bytes() for r in records]
        node.store.version_of(held_keys[0])
        node.store.checksum_state()
    census = memory_census(store)
    assert census["records"]["objects"] == sum(
        len(node.store.all_records()) for node in store.servers()
    )
    assert all(base.entries[key] is entry for key, entry in before.items())


def _digest(entries):
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_a_seeded_run_matches_its_per_server_twin(durable, monkeypatch):
    """After a seeded run, a deployment preloaded through the shared base
    and one preloaded one table per server (``helpers.install_per_server``)
    hold the same records, count the same writes, size the same census and
    sent the same messages."""
    runs = []
    for per_server_twin in (False, True):
        store = make_store(sites=("dc0", "dc1"), durable_storage=durable)
        tap = MessageTap().attach(store.network)
        with monkeypatch.context() as patch:
            if per_server_twin:
                patch.setattr(chainreaction_datastore, "install_converged", install_per_server)
            result = _run(store)
        census = memory_census(store)
        census.pop("vv_intern_pool", None)
        census.pop("event_pool", None)
        runs.append((
            [held(node) for node in store.servers()],
            census,
            _digest(tap.entries),
            store.sim.events_processed,
            result.ops_completed,
        ))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# placement on first route: the chain memo holds what the run routed
# ----------------------------------------------------------------------
def test_preload_places_no_key(fresh_rings):
    store = make_store(sites=("dc0", "dc1"))
    store.preload({f"user{i:06d}": i for i in range(10_000)})
    assert _memo(store) == set()
    node = store.servers()[0]
    assert node.store.writes_applied > 0  # a count places keys, memoizes none
    assert _memo(store) == set()


def test_a_seeded_run_memoizes_only_the_keys_it_routed(fresh_rings):
    store = make_store(sites=("dc0", "dc1"))
    result = _run(store)
    memo = _memo(store)
    assert memo and memo <= set(result.history.keys())
    assert len(memo) < len(_base(store).entries)


def _census(store):
    memory_census(store)


def _items(store):
    for node in store.servers():
        assert sum(1 for _ in node.store.items())


def _writes_applied(store):
    for node in store.servers():
        assert node.store.writes_applied


def _durable_install(store):
    for node in store.servers():
        fresh = DurableStore()
        assert fresh.install(node.store.base, node.store.holds) == []
        assert len(fresh.log) == fresh.writes_applied > 0


_WALKS = {
    "census": _census,
    "items": _items,
    "writes_applied": _writes_applied,
    "durable-install": _durable_install,
}


@pytest.mark.parametrize(
    "walk, partial",
    [pytest.param(walk, False, id=name) for name, walk in _WALKS.items()]
    + [pytest.param(walk, True, id=name + "-partial") for name, walk in _WALKS.items()],
)
def test_walks_over_the_base_leave_the_memo_as_the_run_left_it(walk, partial, fresh_rings, monkeypatch):
    """Partial replication adds a second memo, the shard catalog's, which
    the holding rule reads the same way it reads the chain memo."""
    monkeypatch.setattr(placement, "_CATALOG_CACHE", {})
    if partial:
        store = make_store(sites=("dc0", "dc1", "dc2"), replication_degree=2, durable_storage=True)
    else:
        store = make_store(sites=("dc0", "dc1"), durable_storage=True)
    _run(store)
    routed = _memo(store)
    shards = _shard_memo(store)
    assert len(routed) < len(_base(store).entries)
    assert len(shards) < len(_base(store).entries)
    walk(store)
    assert _memo(store) == routed
    assert _shard_memo(store) == shards
