"""Byte and identity oracles for what changed representation on the
wire path.

Reads, dependency waits and remote injects travel as typed request /
reply pairs (:class:`GetRequest` / :class:`ReadReply`,
:class:`WaitStable` and :class:`ApplyRemote` / :class:`Ack`). Each
payload they replaced was held to a byte oracle of its own: the
string-keyed dicts an ``apply_remote`` RPC and a ``get`` reply once
carried, and the ``(key, entries dict)`` a ``wait_stable`` RPC once
carried. Those payloads are gone, and with them their oracles. What
holds the typed messages is the rule every message keeps: the compiled
size plan equals the full field walk (``_walk_size``) and the
reference walk kept in ``helpers``, for any content — the clock plane's
``hlc``, a forwarded read's ``fwd_deps`` and the refusals included.

:class:`Address` (a frozen dataclass with a cached hash -> a ``tuple``
subclass) and ``VersionVector.size_bytes``, which answers from a slot,
are each held to the thing they replaced.
"""

import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_geo_store, reference_estimate_size, reference_message_size, run_op

import repro
from repro.core.deptable import DepTable
from repro.core.messages import (
    Ack,
    ApplyRemote,
    ChainPut,
    DepEntry,
    GetRequest,
    PutRequest,
    ReadReply,
    RemoteUpdate,
    WaitStable,
    deps_size_bytes,
)
from repro.net import Address, estimate_size
from repro.net.message import _walk_size
from repro.sim.hlc import NO_HLC, HLCStamp
from repro.storage import VersionVector
from repro.storage.version import clear_intern_pool, entries_size_bytes, set_interning


def vv(**entries):
    return VersionVector(entries)


STAMP = HLCStamp(1_700_000, 3, "dc0:s1")


def snapshot(entries):
    table = DepTable()
    for key, entry in entries.items():
        table.set(key, entry.version, entry.index, entry.hlc)
    return table.snapshot()


DEPS = {"dep-a": DepEntry(vv(dc0=2), 0), "dep-b": DepEntry(vv(dc0=1, dc1=4), 1, STAMP)}


def shipped(**fields):
    base = dict(key="k", value="v", version=vv(dc0=3), origin_site="dc0", origin_put_at=1.25)
    return RemoteUpdate(**{**base, **fields})


#: every shape a proxy injects
APPLY_REMOTE_SHAPES = {
    "bare": shipped(),
    "tombstone": shipped(value=None, version=vv(dc0=3, dc1=1)),
    "dict deps": shipped(deps=DEPS),
    "snapshot deps": shipped(deps=snapshot(DEPS)),
    "empty snapshot": shipped(deps=snapshot({})),
    "merged record's stamp": shipped(stamp=vv(dc0=3, dc1=2).total_order_key()),
    "clock plane": shipped(hlc=STAMP),
    "clock plane, everything": shipped(
        value="v" * 100, deps=snapshot(DEPS), stamp=vv(dc1=9).total_order_key(), hlc=STAMP
    ),
    "hand-built, integer clock": shipped(origin_put_at=0, value=b"raw"),
}


def typed(msg, request_id=7):
    """The injection a proxy sends its head for the ``RemoteUpdate`` ``msg``."""
    return ApplyRemote(
        request_id=request_id, key=msg.key, value=msg.value, version=msg.version,
        stamp=msg.stamp, deps=msg.deps, origin_site=msg.origin_site,
        origin_put_at=msg.origin_put_at, hlc=msg.hlc,
    )


values = st.recursive(
    st.none() | st.text(max_size=40) | st.binary(max_size=40) | st.integers() | st.booleans(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
vectors = st.dictionaries(
    st.sampled_from(["dc0", "dc1", "dc2", "dc3"]), st.integers(1, 10**6)
).map(VersionVector)
stamps = st.builds(HLCStamp, st.integers(0, 10**9), st.integers(0, 99), st.sampled_from(["dc0", "dc1"]))
dep_maps = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.builds(DepEntry, vectors, st.integers(0, 5), st.none() | stamps),
    max_size=3,
)
updates = st.builds(
    RemoteUpdate,
    key=st.text(max_size=12),
    value=values,
    version=vectors,
    stamp=st.none() | vectors.map(VersionVector.total_order_key),
    deps=dep_maps | dep_maps.map(snapshot),
    origin_site=st.sampled_from(["dc0", "dc1", "a-longer-site-name"]),
    origin_put_at=st.floats(0, 1e6),
    hlc=st.just(NO_HLC) | stamps,
)
request_ids = st.integers(1, 2**40)
refusals = st.sampled_from(["syncing", "not-responsible-shard", "not-responsible"])
read_replies = st.builds(
    ReadReply,
    request_id=request_ids,
    value=values,
    version=vectors,
    stable=st.booleans(),
    globally=st.booleans(),
    index=st.integers(0, 5),
    # the notices plane, the clock plane's unstamped and stamped records
    hlc=st.just(NO_HLC) | st.none() | stamps,
    fwd_deps=st.none() | dep_maps.filter(bool),
)
#: every typed request and reply of the per-operation paths
typed_messages = st.one_of(
    st.builds(GetRequest, request_id=request_ids, key=st.text(max_size=12), forwarded=st.booleans()),
    read_replies,
    st.builds(ReadReply, request_id=request_ids, ok=st.just(False), error=refusals),
    st.builds(WaitStable, request_id=request_ids, key=st.text(max_size=12), version=vectors),
    st.builds(typed, updates, request_ids),
    st.builds(Ack, request_id=request_ids, ok=st.booleans()),
)


class TestTypedRequestPlans:
    """The compiled size plan of every typed request and reply equals the
    full field walk, and the reference walk, for any content."""

    @given(typed_messages)
    def test_plan_equals_the_field_walk(self, msg):
        assert msg.size_bytes() == _walk_size(msg) == reference_message_size(msg)

    @pytest.mark.parametrize("shape", sorted(APPLY_REMOTE_SHAPES))
    def test_every_injected_shape(self, shape):
        msg = typed(APPLY_REMOTE_SHAPES[shape])
        assert msg.size_bytes() == _walk_size(msg) == reference_message_size(msg)

    def test_absent_fields_cost_what_the_notices_plane_pays(self):
        # NO_HLC is free and an absent ``fwd_deps`` one byte: a notices
        # read reply is its fixed fields, its value and its version.
        reply = ReadReply(request_id=1, value="v", version=vv(dc0=1))
        assert reply.size_bytes() == 24 + 8 + (4 + 1) + vv(dc0=1).size_bytes() + 1 + 1 + 8 + 1 + 4 + 1
        stamped = ReadReply(request_id=1, value="v", version=vv(dc0=1), hlc=STAMP)
        assert stamped.size_bytes() - reply.size_bytes() == STAMP.size_bytes()


class TestApplyRemote:
    @given(updates, request_ids)
    def test_plan_equals_the_field_walk_for_any_content(self, msg, request_id):
        update = typed(msg, request_id)
        assert update.size_bytes() == _walk_size(update) == reference_message_size(update)

    @pytest.mark.parametrize("shape", sorted(APPLY_REMOTE_SHAPES))
    def test_pickle_round_trip_keeps_size_and_absence(self, shape):
        # Requests cross the shard boundary by pickle: "no stamp" must
        # come back as the NO_HLC singleton, not as a look-alike.
        update = typed(APPLY_REMOTE_SHAPES[shape])
        copy = pickle.loads(pickle.dumps(update))
        assert copy.size_bytes() == update.size_bytes()
        assert (copy.hlc is NO_HLC) == (update.hlc is NO_HLC)
        assert copy == update

    @pytest.mark.parametrize("stability", ["notices", "clock"])
    def test_what_a_proxy_sends_and_a_head_reads(self, stability):
        store = make_geo_store(stability=stability)
        seen = []
        store.network.add_filter(
            lambda src, dst, msg: seen.append(msg) or True
        )
        s = store.session("dc0")
        version = run_op(store, s.put("k", "v")).version
        store.run(until=1.0)
        sent = [m for m in seen if m.type_name == "apply-remote"]
        assert len(sent) == 1 and isinstance(sent[0], ApplyRemote)
        update = sent[0]
        assert (update.key, update.value, update.version, update.origin_site) == ("k", "v", version, "dc0")
        assert (update.hlc is NO_HLC) == (stability == "notices")
        acks = [m for m in seen if m.type_name == "ack"]
        assert [(ack.request_id, ack.ok) for ack in acks] == [(update.request_id, True)]
        assert store.protocol_stats()["remote_applies"] == 1 and store.converged("k")


class TestWaitStablePayload:
    """A ``WaitStable`` carries the vector itself, not its ``entries()``."""

    @pytest.mark.parametrize(
        "version", [VersionVector(), vv(dc0=1), vv(dc0=7, dc1=2, a_long_datacenter_name=3)]
    )
    def test_request_bytes_equal_the_entries_dicts(self, version):
        # The entries dict breaks the field's promise, so it is walked.
        new = WaitStable(request_id=3, key="key", version=version)
        old = WaitStable(request_id=3, key="key", version=version.entries())
        assert new.size_bytes() == old.size_bytes() == reference_message_size(old)

    @given(st.text(max_size=20), vectors)
    def test_for_any_key_and_vector(self, key, version):
        msg = WaitStable(request_id=3, key=key, version=version)
        assert msg.size_bytes() == _walk_size(msg) == reference_message_size(msg)
        assert msg.size_bytes() == 24 + 8 + 4 + len(key) + version.size_bytes()

    def test_the_vector_arrives_as_sent(self):
        version = vv(dc0=4, dc1=1)
        received = pickle.loads(pickle.dumps(WaitStable(request_id=3, key="k", version=version))).version
        assert received == version and received.size_bytes() == version.size_bytes()


class TestAddress:
    @pytest.mark.parametrize("site,node", [("dc0", "s1"), ("", ""), ("eu-west-1", "geoproxy")])
    def test_wire_bytes_are_pinned(self, site, node):
        address = Address(site, node)
        expected = 8 + len(site) + len(node)
        assert address.size_bytes() == estimate_size(address) == expected
        assert reference_estimate_size(address) == expected

    def test_sized_by_itself_not_as_the_tuple_it_is(self):
        address = Address("dc0", "client-3")
        assert isinstance(address, tuple)
        assert estimate_size(address) == 19 != estimate_size(tuple(address))
        for cls in (PutRequest, ChainPut):
            with_address = cls(key="k", value="v", reply_to=address)
            assert with_address.size_bytes() == reference_message_size(with_address)
            # None costs one byte
            assert with_address.size_bytes() - cls(key="k", value="v").size_bytes() == 19 - 1

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_hashes_like_the_pair(self, site, node):
        # The very value the cached ``_hash`` held: tables keyed by
        # address keep their layout, and a pair looks an address up.
        assert hash(Address(site, node)) == hash((site, node))

    def test_orders_and_compares_as_the_dataclass_did(self):
        a, b, c = Address("dc0", "s2"), Address("dc0", "s10"), Address("dc1", "a")
        assert sorted([c, a, b]) == [b, a, c]  # by (site, node), as strings
        assert a < c and b < a and not a < a and a <= a and c > a
        assert a == Address("dc0", "s2") and a != b
        assert len({a, Address("dc0", "s2"), b}) == 2

    def test_fields_have_names_and_cannot_be_set(self):
        address = Address("dc0", "s1")
        assert (address.site, address.node, str(address)) == ("dc0", "s1", "dc0:s1")
        assert repr(address) == "Address(site='dc0', node='s1')"
        assert not hasattr(address, "__dict__")
        with pytest.raises(AttributeError):
            address.site = "dc1"
        with pytest.raises(AttributeError):
            address.extra = 1

    def test_pickle_rebuilds_an_address_through_the_intern_pool(self):
        address = Address("dc-pickled", "node-pickled")
        copy = pickle.loads(pickle.dumps(address))
        assert type(copy) is Address and copy == address and copy is not address
        assert copy.site is address.site and copy.node is address.node
        assert hash(copy) == hash(address)


_dep_keys = st.sampled_from([f"key-{i}" for i in range(40)])
_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _dep_keys, vectors, st.integers(0, 5), st.none() | stamps),
        st.tuples(st.just("pop"), _dep_keys),
        st.tuples(st.just("clear")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("compact")),
    ),
    max_size=150,
)


class TestDepTableRunningTotal:
    """The table keeps its wire size as it changes, and hands it to each
    snapshot: both equal ``deps_size_bytes`` of the same entries."""

    @settings(max_examples=200, deadline=None)
    @given(_table_ops)
    def test_equals_the_walk_after_any_sequence(self, ops):
        table, snapshots = DepTable(), []
        for op, *args in ops:
            if op == "set":
                table.set(*args)
            elif op == "pop":
                table.pop(*args)
            elif op == "clear":
                table.clear()
            elif op == "snapshot":
                snap = table.snapshot()
                snapshots.append((snap, deps_size_bytes(table.as_dict())))
            else:
                table._compact()
            assert table.size_bytes() == deps_size_bytes(table.as_dict())
        for snap, size in snapshots:  # frozen: later mutations leave it be
            assert snap.wire_size == snap.size_bytes() == size == deps_size_bytes(dict(snap.items()))

    def test_pops_past_the_compaction_threshold(self):
        table = DepTable()
        for i in range(40):
            table.set(f"key-{i}", vv(dc0=i + 1), i % 3, STAMP if i % 2 else None)
        for i in range(30):
            table.pop(f"key-{i}")
        assert table.column_slots() < 40  # compacted
        assert table.size_bytes() == deps_size_bytes(table.as_dict())
        assert table.snapshot().wire_size == table.size_bytes()


class _Tagged(VersionVector):
    __slots__ = ()


class TestVersionVectorSizeMemo:
    """``size_bytes`` walks the entries once and then answers from a
    slot, however the vector came to be."""

    ENTRIES = [{}, {"dc0": 1}, {"dc0": 7, "dc1": 2, "a-long-datacenter-name": 3}]

    @pytest.mark.parametrize("entries", ENTRIES)
    def test_equals_the_walk_however_the_vector_was_built(self, entries):
        pooled = VersionVector(entries)
        previous = set_interning(False)
        try:
            unpooled = VersionVector(entries)
        finally:
            set_interning(previous)
        assert unpooled is not pooled
        built = [
            pooled,
            unpooled,
            _Tagged(entries),
            pickle.loads(pickle.dumps(pooled)),
            pickle.loads(pickle.dumps(unpooled)),
            VersionVector().merge(pooled),
            pooled.increment("dc9"),
        ]
        for vector in built:
            walked = entries_size_bytes(vector._entries)
            assert vector.size_bytes() == walked  # fills the slot
            assert vector.size_bytes() == walked  # answers from it
            assert estimate_size(vector) == walked

    @given(vectors)
    def test_equals_the_walk_for_any_vector(self, vector):
        assert vector.size_bytes() == entries_size_bytes(vector._entries)
        assert vector.size_bytes() == 4 + sum(12 + len(dc) for dc in vector.entries())

    def test_a_cleared_pool_hands_out_fresh_vectors_with_the_same_size(self):
        before = vv(dc0=5, dc1=6)
        size = before.size_bytes()
        clear_intern_pool()
        after = vv(dc0=5, dc1=6)
        assert after is not before and after.size_bytes() == size


def test_no_other_production_type_subclasses_a_builtin_container():
    # ``estimate_size`` lets an object that sizes itself win over the
    # container rungs for ``Address``'s sake; any *other* container
    # subclass with a ``size_bytes`` would change rung with it, so there
    # must be none (and none without one either: it would be walked).
    # The explorer's ``Choice`` is a NamedTuple so that its hashes run in
    # C; it is a scheduling decision, never a message field, so never sized.
    containers = (tuple, list, dict, set, frozenset, str, bytes)
    offenders = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == info.name
                and issubclass(value, containers)
                and value not in containers
            ):
                offenders.add(f"{info.name}.{value.__name__}")
    assert offenders == {"repro.net.network.Address", "repro.analysis.explore.Choice"}
