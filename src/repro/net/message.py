"""Message base types and wire-size accounting.

The reproduction never serialises anything for real, but the paper's
metadata-overhead experiment (E8) needs byte-accurate accounting of what
each request carries. :func:`estimate_size` assigns every Python value a
wire size using fixed-width scalars and length-prefixed containers, so
two messages that would serialise to the same wire format get the same
size here.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type, TypeVar

from repro.sim.hlc import NO_HLC, STAMP_WIRE_BYTES, HLCStamp
from repro.storage.version import VersionVector

__all__ = ["Message", "estimate_size", "inline_sized", "wire_message", "WIRE_HEADER_BYTES"]

_M = TypeVar("_M")

#: Fixed per-message envelope: source + destination address, type tag,
#: and length prefix — roughly what a compact binary framing would use.
WIRE_HEADER_BYTES = 24

_SCALAR_SIZES = {  # repro: lint-ok(module-mutable-state) — constant lookup table, never mutated
    bool: 1,
    int: 8,
    float: 8,
    type(None): 1,
}

def _size_bytes_like(value: Any) -> int:
    return 4 + len(value)


def _size_sequence(value: Any) -> int:
    total = 4
    for item in value:
        total += estimate_size(item)
    return total


def _size_dict(value: Any) -> int:
    total = 4
    for key, item in value.items():
        total += estimate_size(key) + estimate_size(item)
    return total


def _size_own(value: Any) -> int:
    return value.size_bytes()  # type: ignore[no-any-return]


def _size_dataclass(value: Any) -> int:
    return sum(estimate_size(getattr(value, f.name)) for f in dataclasses.fields(value))


def _size_opaque(value: Any) -> int:
    # Fallback for exotic types: charge a pointer-sized slot rather than
    # crashing accounting; protocols should not rely on this.
    return 8


#: type → sizer, resolved once per type by :func:`_sizer_for`.
_SIZERS: Dict[type, Callable[[Any], int]] = {}  # repro: lint-ok(module-mutable-state) — per-process memo rebuilt identically from class definitions


def _sizer_for(cls: type) -> Callable[[Any], int]:
    """The sizing rule for instances of ``cls`` (non-scalar), first match
    wins: own ``size_bytes()`` — also on a subclass of a builtin
    container, as ``Address`` is of ``tuple`` — then length-prefixed
    bytes, container, dataclass fields, opaque."""
    if callable(getattr(cls, "size_bytes", None)):
        sizer = _size_own
    elif issubclass(cls, (str, bytes)):
        sizer = _size_bytes_like
    elif issubclass(cls, (list, tuple, set, frozenset)):
        sizer = _size_sequence
    elif issubclass(cls, dict):
        sizer = _size_dict
    elif dataclasses.is_dataclass(cls):
        sizer = _size_dataclass
    else:
        sizer = _size_opaque
    _SIZERS[cls] = sizer
    return sizer


def estimate_size(value: Any) -> int:
    """Estimated wire size in bytes of a Python value.

    Strings/bytes count their length plus a 4-byte length prefix;
    containers count a 4-byte length prefix plus their elements; objects
    exposing ``size_bytes()`` delegate to it; dataclasses count their
    fields. Scalars use fixed widths (int 8, float 8, bool 1, None 1).

    The rule is a property of ``type(value)``, looked up in one table
    instead of re-derived per value.
    """
    cls = type(value)
    scalar = _SCALAR_SIZES.get(cls)
    if scalar is not None:
        return scalar
    if cls is str:
        return 4 + len(value)
    return (_SIZERS.get(cls) or _sizer_for(cls))(value)


#: What a field annotation promises: (runtime type, wire bytes folded
#: into the compiled constant, the per-value term or None). Keyed by
#: both spellings — annotations are strings under ``from __future__
#: import annotations``, types otherwise. A promise is checked against
#: every value: one that breaks it sends the message down the walk.
_PROMISED: Dict[Any, Tuple[type, int, Optional[str]]] = {  # repro: lint-ok(module-mutable-state) — constant lookup table, never mutated
    bool: (bool, 1, None),
    "bool": (bool, 1, None),
    int: (int, 8, None),
    "int": (int, 8, None),
    float: (float, 8, None),
    "float": (float, 8, None),
    str: (str, 4, "len({0})"),
    "str": (str, 4, "len({0})"),
    VersionVector: (VersionVector, 0, "({0}._size or {0}.size_bytes())"),
    "VersionVector": (VersionVector, 0, "({0}._size or {0}.size_bytes())"),
}

#: How a field that promises nothing is sized, by annotation: the values
#: it usually holds inline, anything else (the default) by ``estimate_size``.
_UNPROMISED: Dict[Any, str] = {  # repro: lint-ok(module-mutable-state) — constant lookup table, never mutated
    "Any": "(1 if {0} is None else 0 if {0} is NO_HLC else 4 + len({0}) "
    f"if type({{0}}) is str else {STAMP_WIRE_BYTES} if type({{0}}) is HLCStamp "
    "else estimate_size({0}))",
    "Optional[Address]": "(1 if {0} is None else 8 + len({0}[0]) + len({0}[1]) "
    "if type({0}) is Address else estimate_size({0}))",
    "Deps": "({0}.wire_size if type({0}) is DepSnapshot else estimate_size({0}))",
    "Optional[Deps]": "(1 if {0} is None else estimate_size({0}))",
}


def _walk_size(message: Any) -> int:
    """Envelope plus :func:`estimate_size` of every field: the size a
    compiled ``__init__`` must equal, and what it falls back to on a
    broken promise."""
    return WIRE_HEADER_BYTES + _size_dataclass(message)


#: The globals of every compiled ``__init__``. ``Address`` and
#: ``DepSnapshot`` are defined in modules that import this one: each
#: replaces its ``None`` through :func:`inline_sized` (until then no
#: ``type()`` is None, so their rules fall to ``estimate_size``).
_COMPILED_GLOBALS: Dict[str, Any] = {  # repro: lint-ok(module-mutable-state) — per-process table rebuilt identically from class definitions
    "NO_HLC": NO_HLC,
    "HLCStamp": HLCStamp,
    "VersionVector": VersionVector,
    "Address": None,
    "DepSnapshot": None,
    "estimate_size": estimate_size,
    "walk": _walk_size,
}


def inline_sized(cls: Type[_M]) -> Type[_M]:
    """Let every compiled ``__init__`` size values of ``cls`` by its
    :data:`_UNPROMISED` rule (``Address``, ``DepSnapshot``)."""
    _COMPILED_GLOBALS[cls.__name__] = cls
    return cls


def _direct_init(cls: type, generated: List[inspect.Parameter]) -> Callable[..., None]:
    """``cls``'s dataclass ``__init__`` (whose parameters are
    ``generated``), compiled to store each field straight into the
    instance ``__dict__`` rather than through ``object.__setattr__``
    and then the message's wire size, as ``wire_size``.

    The same parameters in the same order with the same default objects
    — a ``default_factory`` field's is the dataclass's own sentinel, and
    the factory is called once per instance that does not pass one (the
    size reads the stored value, never the sentinel). The envelope and
    the fixed bytes of every promised field fold into one constant;
    what remains is ``len`` per ``str`` field, the vector's memo per
    ``VersionVector`` field and the :data:`_UNPROMISED` rule per other
    one. A value that breaks its field's promise (annotations are never
    trusted) sizes the whole message by :func:`_walk_size`.

    Built inside a closure over the defaults and factories, so every
    class shares :data:`_COMPILED_GLOBALS`; a field may not shadow one.
    """
    closure: Dict[str, Any] = {}
    params, body = ["self"], ["        fields_ = self.__dict__"]
    fixed, promises, terms = WIRE_HEADER_BYTES, [], []
    for field, parameter in zip(dataclasses.fields(cls), generated):
        name = field.name
        if name in _COMPILED_GLOBALS or name in ("fields_", "type", "len"):
            raise TypeError(f"wire message {cls.__qualname__}: field name {name!r} is reserved")
        if parameter.default is inspect.Parameter.empty:
            params.append(name)
        else:
            closure[f"_default_{name}"] = parameter.default
            params.append(f"{name}=_default_{name}")
        if field.default_factory is not dataclasses.MISSING:
            closure[f"_factory_{name}"] = field.default_factory
            body.append(f"        if {name} is _default_{name}:")
            body.append(f"            {name} = _factory_{name}()")
        body.append(f"        fields_[{name!r}] = {name}")
        promised, folded, term = _PROMISED.get(field.type, (None, 0, None))
        fixed += folded
        if promised is not None:
            promises.append(f"type({name}) is {promised.__name__}")
        else:
            term = _UNPROMISED.get(field.type, "estimate_size({0})")
        if term is not None:
            terms.append(term.format(name))
    size = " + ".join([str(fixed), *terms])
    if promises:  # the condition is evaluated first
        size = f"{size} if {' and '.join(promises)} else walk(self)"
    body.append(f"        fields_['wire_size'] = {size}")
    lines = [
        f"def _make({', '.join(closure)}):",
        f"    def __init__({', '.join(params)}):",
        *body,
        "    return __init__",
    ]
    code = compile("\n".join(lines), f"<wire:{cls.__qualname__}>", "exec")
    namespace: Dict[str, Any] = {}
    exec(code, _COMPILED_GLOBALS, namespace)  # noqa: S102 - built from field names and the tables here only
    init: Callable[..., None] = namespace["_make"](**closure)
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)  # type: ignore[misc]
    return init


def wire_message(cls: Type[_M]) -> Type[_M]:
    """Declare a protocol message: the one spelling for a ``Message``
    subclass (the linter's ``frozen-message`` rule accepts nothing else).

    Applies ``dataclasses.dataclass(frozen=True)`` — frozen semantics,
    ``__eq__``, ``__repr__``, ``__hash__``, pickling, ``fields`` and
    ``replace`` are the dataclass's own — then swaps the generated
    ``__init__`` for :func:`_direct_init`'s, which also sizes the
    message. A message is built once per hop, and ``object.__setattr__``
    per field was most of what building one cost.

    Refuses what the compiled ``__init__`` does not reproduce: a
    ``__post_init__``, and a parameter list that is not exactly the
    fields (an ``init=False``, ``kw_only`` or ``InitVar`` field).
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"wire message {cls.__qualname__} may not define __post_init__")
    cls = dataclasses.dataclass(frozen=True)(cls)
    generated = list(inspect.signature(cls.__init__).parameters.values())[1:]
    expected = [(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for f in dataclasses.fields(cls)]
    if [(p.name, p.kind) for p in generated] != expected:
        raise TypeError(
            f"wire message {cls.__qualname__}: every field must be an __init__ "
            "parameter, positional or keyword (no init=False, kw_only or InitVar)"
        )
    cls.__init__ = _direct_init(cls, generated)  # type: ignore[misc]
    return cls


class _SizedOnAsk:
    """``wire_size`` of a message whose ``__init__`` did not set it (a
    ``Message`` subclass not declared ``@wire_message``): walked on first
    ask and kept on the instance, whose entry then shadows this
    non-data descriptor."""

    def __get__(self, message: Any, owner: Optional[type] = None) -> Any:
        if message is None:
            return self
        size = message.__dict__["wire_size"] = _walk_size(message)
        return size


@wire_message
class Message:
    """Base class for all protocol messages.

    Subclasses are declared with :func:`wire_message` (the linter's
    ``frozen-message`` rule enforces it): frozen dataclasses whose
    ``__init__`` is compiled from the field list. ``wire_size``, set
    when the message is built, is the envelope plus every field; the
    network reads it on every send. Being frozen is what makes a size
    taken at build time the size at every send.
    """

    #: Human-readable tag used in network statistics.
    type_name: ClassVar[str] = "message"

    wire_size = _SizedOnAsk()

    def size_bytes(self) -> int:
        """The wire size (``wire_size``)."""
        return self.wire_size  # type: ignore[no-any-return]
