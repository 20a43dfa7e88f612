"""Unit tests for message wire-size accounting."""

import collections
import dataclasses
import enum
from typing import Any, ClassVar

import pytest
from hypothesis import given, strategies as st

from repro.cluster.membership import RingView
from repro.core.deptable import DepTable
from repro.core.messages import DepEntry, RemoteUpdate
from repro.net import Address, Message, estimate_size
from repro.net.message import _COMPILED_GLOBALS, WIRE_HEADER_BYTES, wire_message
from repro.sim.hlc import NO_HLC, HLCStamp
from repro.storage import VersionVector

from helpers import reference_estimate_size, reference_message_size


@dataclasses.dataclass(frozen=True)
class Ping(Message):
    type_name: ClassVar[str] = "ping"
    seq: int = 0
    note: str = ""


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(True) == 1
        assert estimate_size(None) == 1
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8

    def test_strings_and_bytes_are_length_prefixed(self):
        assert estimate_size("abc") == 4 + 3
        assert estimate_size(b"abcd") == 4 + 4
        assert estimate_size("") == 4

    def test_containers_recurse(self):
        assert estimate_size([1, 2]) == 4 + 16
        assert estimate_size((1, "ab")) == 4 + 8 + 6
        assert estimate_size({"k": 1}) == 4 + (4 + 1) + 8
        assert estimate_size(set()) == 4

    def test_object_with_size_bytes_delegates(self):
        vv = VersionVector({"dc0": 3})
        assert estimate_size(vv) == vv.size_bytes()

    def test_dataclass_sums_fields(self):
        @dataclasses.dataclass
        class Pair:
            a: int
            b: str

        assert estimate_size(Pair(1, "xy")) == 8 + 6

    def test_unknown_type_charged_pointer(self):
        assert estimate_size(object()) == 8


class TestMessageSize:
    def test_message_includes_header(self):
        msg = Ping(seq=1, note="hi")
        assert msg.size_bytes() == WIRE_HEADER_BYTES + 8 + (4 + 2)

    def test_bigger_payload_bigger_message(self):
        assert Ping(note="x" * 100).size_bytes() > Ping(note="x").size_bytes()


# ----------------------------------------------------------------------
# plans and type dispatch == the reference walk
# ----------------------------------------------------------------------

VV = VersionVector({"dc0": 3, "dc1": 1})
STAMP = HLCStamp(1_700_000, 2, "dc0:s1")
ENTRY_DEPS = {"dep-a": DepEntry(VV, 1), "dep-b": DepEntry(VersionVector(), 0, STAMP)}


def snapshot_deps():
    table = DepTable()
    table.set("dep-a", VV, 1, None)
    table.set("dep-b", VersionVector(), 0, STAMP)
    return table.snapshot()


def production_message_classes():
    """Every ``Message`` subclass the protocol packages define."""
    import repro.baselines  # noqa: F401 - imported for their Message subclasses
    import repro.cluster  # noqa: F401
    import repro.core  # noqa: F401

    found, stack = set(), [Message]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return sorted(
        (c for c in found if c.__module__.startswith("repro.")),
        key=lambda c: (c.__module__, c.__qualname__),
    )


def populated(cls, deps, hlc, reply_to):
    """An instance of ``cls`` with every field set to a realistic value."""
    update = RemoteUpdate(
        key="k1", value="v" * 64, version=VV, stamp=(3, "dc0"), deps=deps,
        origin_site="dc0", origin_put_at=1.5, hlc=hlc,
    )
    by_annotation = {
        "int": 7,
        "str": "some-name",
        "bool": True,
        "float": 1.25,
        "VersionVector": VV,
        "Deps": deps,
        "Optional[Deps]": deps,
        "Optional[Address]": reply_to,
        "'StableEntries'": (("k1", VV), ("k2", VersionVector())),
        "Tuple[RemoteUpdate, ...]": (update, dataclasses.replace(update, key="k2", value=None)),
        "Tuple": (("k1", "v" * 64, VV, VV, (3, "dc0")),),
        "Dict[str, VersionVector]": {"k1": VV, "k2": VersionVector()},
        "Optional[RingView]": RingView(epoch=3, site="dc0", servers=("s0", "s1"), chain_length=2),
    }
    by_name = {  # the ``Any`` fields
        "value": "v" * 64,
        "stamp": (3, "dc0"),
    }
    values = {}
    for field in dataclasses.fields(cls):
        if field.type == "Any":
            values[field.name] = by_name.get(field.name, hlc)  # the rest are stamps
        else:
            values[field.name] = by_annotation[field.type]
    return cls(**values)


MISMATCH = {"int": "not-an-int", "str": 12, "bool": None, "float": True}


class TestSizePlans:
    @pytest.mark.parametrize("cls", production_message_classes(), ids=lambda c: c.__name__)
    def test_plan_equals_reference_walk(self, cls):
        instances = [
            cls(),
            populated(cls, ENTRY_DEPS, NO_HLC, None),
            populated(cls, snapshot_deps(), STAMP, Address("dc1", "client-3")),
            # annotations are never trusted: every field breaks its promise
            cls(**{f.name: MISMATCH.get(f.type, 3.5) for f in dataclasses.fields(cls)}),
        ]
        for instance in instances:
            assert instance.size_bytes() == reference_message_size(instance), instance

    def test_a_stamp_is_sized_by_its_constant_not_handed_to_estimate_size(self, monkeypatch):
        handed = []
        sizer = _COMPILED_GLOBALS["estimate_size"]
        monkeypatch.setitem(
            _COMPILED_GLOBALS, "estimate_size", lambda value: handed.append(type(value)) or sizer(value)
        )
        for cls in production_message_classes():
            populated(cls, ENTRY_DEPS, STAMP, None)
        assert dict in handed  # the compiled inits do call through the patch
        assert HLCStamp not in handed

    def test_every_production_message_is_covered(self):
        names = {c.__name__ for c in production_message_classes()}
        assert {"GetStable", "StableReply", "ViewChange", "ViewReply", "ClockShip", "BulkStable",
                "StabilityVector", "RemoteUpdateBatch", "RemoteWrite", "AeDigest", "KvPut",
                "KvReply", "DepCheck", "ReplicaRecord"} <= names

    def test_untyped_annotations_and_subclass_fields(self):
        # annotations that are real types (no ``from __future__ import
        # annotations`` in this module), inherited fields, a subclass
        # sized on first ask and one sized when built
        @dataclasses.dataclass(frozen=True)
        class Pong(Ping):
            extra: Any = None

        @wire_message
        class Built(Ping):
            extra: Any = None

        for cls in (Pong, Built):
            for msg in (cls(seq=2, note="yo", extra=[1, "a"]), cls(seq=True, note=b"raw")):
                assert msg.size_bytes() == reference_message_size(msg)
                assert msg.size_bytes() == reference_message_size(msg)  # kept

    def test_str_and_int_subclasses_size_like_the_walk(self):
        class Name(str):
            pass

        class Flag(enum.IntEnum):
            ON = 1

        for value in (Name("abc"), Flag.ON, collections.OrderedDict(a=1), Address("dc0", "n")):
            assert estimate_size(value) == reference_estimate_size(value)
        msg = Ping(seq=Flag.ON, note=Name("abc"))
        assert msg.size_bytes() == reference_message_size(msg)


_hashable = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(), st.binary()
)
_values = st.recursive(
    st.one_of(_hashable, st.sets(_hashable), st.frozensets(_hashable)),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(_hashable, children),
    ),
    max_leaves=20,
)


@given(_values)
def test_estimate_size_equals_reference_walk(value):
    assert estimate_size(value) == reference_estimate_size(value)
