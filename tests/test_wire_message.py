"""``@wire_message``: every production message behaves as the plain
frozen dataclass it replaces — same signature, construction, freezing,
equality, repr, hash, pickling and ``replace`` — and the size its
compiled ``__init__`` carries equals the reference walk.

The stock twin of each class (``stock``) is the same field list under
``dataclasses.dataclass(frozen=True)`` alone: the oracle for "as before".
"""

import dataclasses
import importlib
import inspect
import pickle
from typing import Any, ClassVar

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.membership import RingView
from repro.net import Address, Message
from repro.net.message import _walk_size, wire_message
from repro.storage import VersionVector

from helpers import reference_message_size

MESSAGE_MODULES = (
    "repro.core.messages",
    "repro.cluster.membership",
    "repro.baselines.common",
    "repro.baselines.cops",
    "repro.baselines.eventual",
    "repro.baselines.quorum",
)


def message_classes():
    """Every ``Message`` subclass the six message modules declare."""
    for name in MESSAGE_MODULES:
        importlib.import_module(name)
    found, stack = [], [Message]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return sorted(
        (c for c in found if c.__module__ in MESSAGE_MODULES),
        key=lambda c: (c.__module__, c.__qualname__),
    )


CLASSES = message_classes()


def stock(cls):
    """``cls``'s fields under the stock dataclass ``__init__``; same
    qualname, so reprs compare verbatim."""
    twin = type(cls.__name__, (cls,), {"__module__": __name__, "__qualname__": cls.__qualname__})
    return dataclasses.dataclass(frozen=True)(twin)


def value_for(annotation: str, salt: int) -> Any:
    """A picklable value of the annotated type; ``salt`` tells two apart."""
    by_annotation = {
        "int": 7 + salt,
        "str": f"s{salt}",
        "bool": bool(salt % 2),
        "float": 0.5 + salt,
        "Any": (salt, "any"),
        "VersionVector": VersionVector({"dc0": 1 + salt}),
        "Deps": {f"k{salt}": VersionVector({"dc1": 2})},
        "Optional[Deps]": {f"k{salt}": VersionVector({"dc1": 2})},
        "Dict[str, VersionVector]": {f"k{salt}": VersionVector({"dc1": 2})},
        "Optional[Address]": Address("dc1", f"client-{salt}"),
        "Optional[RingView]": RingView(epoch=salt, site="dc0", servers=("s0", "s1"), chain_length=2),
        "'StableEntries'": ((f"k{salt}", VersionVector({"dc0": 1})),),
        "Tuple[RemoteUpdate, ...]": ((f"k{salt}", "v"),),
        "Tuple": ((f"k{salt}", "v", VersionVector(), VersionVector(), None),),
    }
    return by_annotation[annotation]


def field_values(cls, salt=1):
    return [value_for(f.type, salt) for f in dataclasses.fields(cls)]


def test_every_message_module_is_walked():
    assert len(CLASSES) == 41
    for cls in CLASSES:
        assert cls.__init__.__code__.co_filename == f"<wire:{cls.__qualname__}>"
        assert vars(cls())["wire_size"] == _walk_size(cls())  # sized by __init__


def test_two_classes_compile_under_different_file_names():
    # cProfile keys its rows by (file, line, name): one shared
    # ``<string>`` file would merge every class's __init__ into one row
    inits = {cls.__init__.__code__.co_filename for cls in CLASSES}
    assert len(inits) == len(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestAsTheStockDataclass:
    def test_signature(self, cls):
        assert str(inspect.signature(cls.__init__)) == str(inspect.signature(stock(cls).__init__))

    def test_defaults_positional_and_keyword_construction(self, cls):
        twin = stock(cls)

        def sized(message):  # the stock twin is walked on first ask
            message.size_bytes()
            return vars(message)

        assert vars(cls()) == sized(twin())
        values = field_values(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        positional, keyword = cls(*values), cls(**dict(zip(names, values)))
        assert positional == keyword
        assert vars(positional) == vars(keyword) == sized(twin(*values))
        # the stock layout, in field order, then the size
        assert list(vars(positional)) == [*names, "wire_size"]

    def test_default_factories_run_per_instance(self, cls):
        a, b = cls(), cls()
        for field in dataclasses.fields(cls):
            if field.default_factory is dataclasses.MISSING:
                continue
            assert getattr(a, field.name) == field.default_factory()
            if isinstance(getattr(a, field.name), dict):
                assert getattr(a, field.name) is not getattr(b, field.name)

    def test_frozen(self, cls):
        message = cls(*field_values(cls))
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(message, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(message, field.name)

    def test_eq_repr_hash(self, cls):
        twin = stock(cls)
        one, other = field_values(cls, 1), field_values(cls, 2)
        assert cls(*one) == cls(*one) and cls(*one) != cls(*other)
        assert repr(cls(*one)) == repr(twin(*one))
        assert repr(cls()) == repr(twin())
        try:
            expected = hash(twin(*one))
        except TypeError:
            with pytest.raises(TypeError):
                hash(cls(*one))
        else:
            assert hash(cls(*one)) == expected

    def test_pickle_before_and_after_sizing(self, cls):
        for message in (cls(), cls(*field_values(cls))):
            assert pickle.loads(pickle.dumps(message)) == message
            size = message.size_bytes()
            copy = pickle.loads(pickle.dumps(message))
            assert copy == message and copy.size_bytes() == size
            assert vars(copy)["wire_size"] == size  # carried, not re-walked

    def test_replace(self, cls):
        message = cls(*field_values(cls, 1))
        first = dataclasses.fields(cls)[0].name
        changed = dataclasses.replace(message, **{first: value_for(dataclasses.fields(cls)[0].type, 2)})
        assert type(changed) is cls and changed != message
        assert dataclasses.replace(changed, **{first: getattr(message, first)}) == message

    def test_plan_equals_the_walk(self, cls):
        broken = {"int": "not-an-int", "str": 12, "bool": None, "float": True, "VersionVector": None}
        instances = [
            cls(),
            cls(*field_values(cls)),
            # every promise broken: the compiled size falls back to the walk, never raises
            cls(*[broken.get(f.type, 3.5) for f in dataclasses.fields(cls)]),
        ]
        for message in instances:
            assert message.size_bytes() == _walk_size(message) == reference_message_size(message)


VV_CLASSES = [c for c in CLASSES if any(f.type == "VersionVector" for f in dataclasses.fields(c))]


class Wider(VersionVector):
    """A vector that is not a ``VersionVector`` by ``type() is``."""

    __slots__ = ()

    def size_bytes(self):
        return super().size_bytes() + 5


_vectors = st.dictionaries(
    st.sampled_from(["dc0", "dc1", "dc2", "a-long-datacenter-name"]), st.integers(0, 2**40)
).map(VersionVector)


@pytest.mark.parametrize("cls", VV_CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(version=_vectors, plain=st.booleans())
def test_version_vector_promise(cls, version, plain):
    """A ``VersionVector`` field is sized by the vector's own memo;
    anything else in it — a subclass, a dict — breaks the promise and
    is walked."""
    value = version if plain else Wider(version.entries())
    message = cls(**{f.name: value for f in dataclasses.fields(cls) if f.type == "VersionVector"})
    assert message.size_bytes() == _walk_size(message) == reference_message_size(message)
    odd = cls(**{f.name: version.entries() for f in dataclasses.fields(cls) if f.type == "VersionVector"})
    assert odd.size_bytes() == _walk_size(odd)


def test_each_factory_call_is_its_own_instance():
    calls = []

    def factory():
        calls.append(1)
        return []

    @wire_message
    class Probe(Message):
        type_name: ClassVar[str] = "probe"
        items: list = dataclasses.field(default_factory=factory)

    a, b = Probe(), Probe()
    assert len(calls) == 2 and a.items == [] and a.items is not b.items
    given_items = [1]
    assert Probe(given_items).items is given_items and len(calls) == 2


class TestRefused:
    def test_post_init(self):
        with pytest.raises(TypeError, match="__post_init__"):

            @wire_message
            class Checked(Message):
                n: int = 0

                def __post_init__(self):
                    pass

    def test_init_false_field(self):
        with pytest.raises(TypeError, match="init=False"):

            @wire_message
            class Hidden(Message):
                n: int = 0
                derived: int = dataclasses.field(default=0, init=False)

    def test_keyword_only_field(self):
        with pytest.raises(TypeError, match="kw_only"):

            @wire_message
            class Named(Message):
                n: int = dataclasses.field(default=0, kw_only=True)
