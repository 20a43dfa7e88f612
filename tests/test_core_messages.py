"""Unit tests for ChainReaction wire messages and dependency accounting."""

import pickle

import pytest
from hypothesis import given, strategies as st

from helpers import legacy_read_reply, make_store, reference_estimate_size, run_op

from repro.core.messages import (
    ChainPut,
    ChainStable,
    DepEntry,
    GlobalAck,
    PutReply,
    PutRequest,
    ReadReply,
    RemoteUpdate,
    deps_size_bytes,
)
from repro.net import RpcResponse, estimate_size
from repro.net.message import WIRE_HEADER_BYTES
from repro.sim.hlc import NO_HLC, HLCStamp
from repro.storage import VersionVector


def vv(**entries):
    return VersionVector(entries)


class TestDepEntry:
    def test_size_counts_version_and_index(self):
        entry = DepEntry(vv(dc0=1), 2)
        assert entry.size_bytes() == vv(dc0=1).size_bytes() + 4

    def test_entries_are_immutable_values(self):
        assert DepEntry(vv(dc0=1), 2) == DepEntry(vv(dc0=1), 2)
        assert DepEntry(vv(dc0=1), 2) != DepEntry(vv(dc0=1), 1)


class TestDepsSize:
    def test_empty_deps_cost_only_prefix(self):
        assert deps_size_bytes({}) == 4

    def test_grows_per_entry(self):
        one = deps_size_bytes({"k": DepEntry(vv(dc0=1), 0)})
        two = deps_size_bytes(
            {"k": DepEntry(vv(dc0=1), 0), "m": DepEntry(vv(dc0=2), 1)}
        )
        assert two > one > 4

    def test_multi_dc_versions_cost_more(self):
        narrow = deps_size_bytes({"k": DepEntry(vv(dc0=1), 0)})
        wide = deps_size_bytes({"k": DepEntry(vv(dc0=1, dc1=1, dc2=1), 0)})
        assert wide > narrow


class TestMessageSizes:
    def test_every_message_includes_header(self):
        for msg in (
            PutRequest(key="k", value="v"),
            PutReply(key="k", version=vv(dc0=1)),
            ChainPut(key="k", value="v", version=vv(dc0=1)),
            ChainStable(key="k", version=vv(dc0=1)),
            RemoteUpdate(key="k", value="v", version=vv(dc0=1)),
            GlobalAck(key="k", version=vv(dc0=1), site="dc0"),
        ):
            assert msg.size_bytes() > WIRE_HEADER_BYTES, type(msg).__name__

    def test_put_request_grows_with_deps(self):
        bare = PutRequest(key="k", value="v")
        laden = PutRequest(
            key="k",
            value="v",
            deps={f"dep{i}": DepEntry(vv(dc0=i + 1), 0) for i in range(5)},
        )
        assert laden.size_bytes() > bare.size_bytes() + 50

    def test_chain_put_grows_with_value(self):
        small = ChainPut(key="k", value="x", version=vv(dc0=1))
        big = ChainPut(key="k", value="x" * 1000, version=vv(dc0=1))
        assert big.size_bytes() - small.size_bytes() == 999

    def test_type_names_unique(self):
        types = [
            PutRequest,
            PutReply,
            ChainPut,
            ChainStable,
            RemoteUpdate,
            GlobalAck,
        ]
        names = [t.type_name for t in types]
        assert len(set(names)) == len(names)


STAMP = HLCStamp(1_700_000, 3, "dc0")
FWD = {"dep-a": DepEntry(vv(dc0=2), 0), "dep-b": DepEntry(vv(dc0=1, dc1=4), 0, STAMP)}

#: every shape a server answers with: (fixed fields, optional fields)
READ_REPLY_SHAPES = {
    "missing record": ((None, VersionVector(), True, True, 2), {}),
    "tombstone": ((None, vv(dc0=3), False, False, 0), {}),
    "notices plane": (("v" * 100, vv(dc0=3, dc1=1), True, False, 1), {}),
    "clock plane, unstamped record": (("v", vv(dc0=1), True, True, 0), {"hlc": None}),
    "clock plane, stamped record": (("v", vv(dc0=1), False, False, 0), {"hlc": STAMP}),
    "forwarded": (("v", vv(dc0=5), True, False, 0), {"fwd_deps": FWD}),
    "forwarded, clock plane": (("v", vv(dc0=5), True, False, 0), {"hlc": STAMP, "fwd_deps": FWD}),
}

values = st.recursive(
    st.none() | st.text(max_size=40) | st.binary(max_size=40) | st.integers() | st.booleans(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
vectors = st.dictionaries(
    st.sampled_from(["dc0", "dc1", "dc2", "dc3"]), st.integers(1, 10**6)
).map(VersionVector)
stamps = st.builds(HLCStamp, st.integers(0, 10**9), st.integers(0, 99), st.sampled_from(["dc0", "dc1"]))
optionals = st.fixed_dictionaries(
    {},
    optional={
        "hlc": st.none() | stamps,
        "fwd_deps": st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.builds(DepEntry, vectors, st.integers(0, 5), st.none() | stamps),
            min_size=1, max_size=3,
        ),
    },
)


class TestReadReply:
    @pytest.mark.parametrize("shape", sorted(READ_REPLY_SHAPES))
    def test_sizes_like_the_dict_it_replaced(self, shape):
        fixed, optional = READ_REPLY_SHAPES[shape]
        oracle = legacy_read_reply(*fixed, **optional)
        size = ReadReply(*fixed, **optional).size_bytes()
        assert size == estimate_size(oracle) == reference_estimate_size(oracle)

    @given(values, vectors, st.booleans(), st.booleans(), st.integers(0, 5), optionals)
    def test_sizes_like_the_dict_for_any_content(self, value, version, stable, globally, index, optional):
        oracle = legacy_read_reply(value, version, stable, globally, index, **optional)
        reply = ReadReply(value, version, stable, globally, index, **optional)
        assert reply.size_bytes() == reference_estimate_size(oracle)

    @pytest.mark.parametrize("shape", sorted(READ_REPLY_SHAPES))
    def test_pickle_round_trip_keeps_size_and_absence(self, shape):
        # Replies cross the shard boundary by pickle: "no hlc key" must
        # come back as the NO_HLC singleton, not as a look-alike.
        fixed, optional = READ_REPLY_SHAPES[shape]
        reply = ReadReply(*fixed, **optional)
        copy = pickle.loads(pickle.dumps(reply))
        assert copy.size_bytes() == reply.size_bytes()
        assert (copy.hlc is NO_HLC) == ("hlc" not in optional)
        assert (copy.fwd_deps is None) == ("fwd_deps" not in optional)
        assert [getattr(copy, name) for name in ReadReply.__slots__] == [
            getattr(reply, name) for name in ReadReply.__slots__
        ]

    @pytest.mark.parametrize("shape", sorted(READ_REPLY_SHAPES))
    def test_rpc_response_carrying_it_sizes_as_before(self, shape):
        fixed, optional = READ_REPLY_SHAPES[shape]
        typed = RpcResponse(request_id=7, ok=True, payload=ReadReply(*fixed, **optional))
        legacy = RpcResponse(request_id=7, ok=True, payload=legacy_read_reply(*fixed, **optional))
        assert typed.size_bytes() == legacy.size_bytes()

    @pytest.mark.parametrize("stability", ["notices", "clock"])
    def test_what_a_server_answers(self, stability):
        store = make_store(stability=stability)
        s = store.session()
        run_op(store, s.put("k", "v"))
        store.run(until=1.0)
        node = next(n for n in store.servers() if n.name == s.view.chain_for("k")[1])
        reply = node.rpc_get("k", s.address)
        assert isinstance(reply, ReadReply)
        assert (reply.value, reply.stable, reply.globally, reply.index) == ("v", True, True, 1)
        assert (reply.hlc is NO_HLC) == (stability == "notices")
        missing = node.rpc_get(next(k for k in map(str, range(99)) if node.name in s.view.chain_for(k)), s.address)
        assert (missing.value, missing.version, missing.stable, missing.globally) == (
            None, VersionVector(), True, True,
        )
