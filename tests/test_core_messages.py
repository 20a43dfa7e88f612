"""Unit tests for ChainReaction wire messages and dependency accounting."""

import pickle

import pytest
from hypothesis import given, strategies as st

from helpers import make_store, reference_message_size, run_op

from repro.core.messages import (
    Ack,
    ApplyRemote,
    ChainPut,
    ChainStable,
    DepEntry,
    GetRequest,
    GlobalAck,
    PutReply,
    PutRequest,
    ReadReply,
    RemoteUpdate,
    WaitStable,
    deps_size_bytes,
)
from repro.net.message import WIRE_HEADER_BYTES, _walk_size
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
            GetRequest(key="k"),
            ReadReply(value="v", version=vv(dc0=1)),
            WaitStable(key="k", version=vv(dc0=1)),
            ApplyRemote(key="k", value="v", version=vv(dc0=1)),
            Ack(),
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
            GetRequest,
            ReadReply,
            WaitStable,
            ApplyRemote,
            Ack,
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
    "refused": ((None, VersionVector(), False, False, 0), {"ok": False, "error": "syncing"}),
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
        # the clock plane's unstamped and stamped records
        "hlc": st.none() | stamps,
        "fwd_deps": st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.builds(DepEntry, vectors, st.integers(0, 5), st.none() | stamps),
            min_size=1, max_size=3,
        ),
    },
)


def read_reply(fixed, optional):
    value, version, stable, globally, index = fixed
    return ReadReply(
        request_id=7, value=value, version=version, stable=stable, globally=globally,
        index=index, **optional,
    )


class TestReadReply:
    @pytest.mark.parametrize("shape", sorted(READ_REPLY_SHAPES))
    def test_plan_equals_the_field_walk(self, shape):
        reply = read_reply(*READ_REPLY_SHAPES[shape])
        assert reply.size_bytes() == _walk_size(reply) == reference_message_size(reply)

    @given(values, vectors, st.booleans(), st.booleans(), st.integers(0, 5), optionals)
    def test_plan_equals_the_field_walk_for_any_content(self, value, version, stable, globally, index, optional):
        reply = read_reply((value, version, stable, globally, index), optional)
        assert reply.size_bytes() == _walk_size(reply) == reference_message_size(reply)

    @pytest.mark.parametrize("shape", sorted(READ_REPLY_SHAPES))
    def test_pickle_round_trip_keeps_size_and_absence(self, shape):
        # Replies cross the shard boundary by pickle: "no hlc" must come
        # back as the NO_HLC singleton, not as a look-alike.
        fixed, optional = READ_REPLY_SHAPES[shape]
        reply = read_reply(fixed, optional)
        copy = pickle.loads(pickle.dumps(reply))
        assert copy.size_bytes() == reply.size_bytes()
        assert (copy.hlc is NO_HLC) == ("hlc" not in optional)
        assert (copy.fwd_deps is None) == ("fwd_deps" not in optional)
        assert copy == reply

    @pytest.mark.parametrize("stability", ["notices", "clock"])
    def test_what_a_server_answers(self, stability):
        store = make_store(stability=stability)
        s = store.session()
        run_op(store, s.put("k", "v"))
        store.run(until=1.0)
        node = next(n for n in store.servers() if n.name == s.view.chain_for("k")[1])
        reply = node.read_reply("k", request_id=9)
        assert isinstance(reply, ReadReply) and (reply.request_id, reply.ok) == (9, True)
        assert (reply.value, reply.stable, reply.globally, reply.index) == ("v", True, True, 1)
        assert (reply.hlc is NO_HLC) == (stability == "notices")
        assert reply.fwd_deps is None
        missing = node.read_reply(next(k for k in map(str, range(99)) if node.name in s.view.chain_for(k)))
        assert (missing.value, missing.version, missing.stable, missing.globally) == (
            None, VersionVector(), True, True,
        )
        stranger = next(k for k in map(str, range(99)) if node.name not in s.view.chain_for(k))
        refused = node.read_reply(stranger, request_id=4)
        assert (refused.request_id, refused.ok, refused.error) == (4, False, "not-responsible")
