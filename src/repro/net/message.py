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

from repro.storage.version import VersionVector

__all__ = ["Message", "estimate_size", "wire_message", "WIRE_HEADER_BYTES"]

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

#: Per-class cache of dataclass field names; ``dataclasses.fields()``
#: rebuilds a tuple of Field objects on every call, which shows up hot
#: when every message hop is sized. Keyed by class, filled lazily.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}  # repro: lint-ok(module-mutable-state) — per-process memo rebuilt identically from class definitions


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


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
    total = 0
    for name in _field_names(type(value)):
        total += estimate_size(getattr(value, name))
    return total


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


#: What a field annotation promises: (runtime type, wire bytes a plan
#: folds into its constant, the plan's per-call term or None). Keyed by
#: both spellings — annotations are strings under ``from __future__
#: import annotations``, types otherwise. A promise is checked against
#: every value (see ``Message.size_bytes``).
_ANNOTATED: Dict[Any, Tuple[type, int, Optional[str]]] = {  # repro: lint-ok(module-mutable-state) — constant lookup table, never mutated
    bool: (bool, 1, None),
    "bool": (bool, 1, None),
    int: (int, 8, None),
    "int": (int, 8, None),
    float: (float, 8, None),
    "float": (float, 8, None),
    str: (str, 4, "len({})"),
    "str": (str, 4, "len({})"),
    VersionVector: (VersionVector, 0, "{}.size_bytes()"),
    "VersionVector": (VersionVector, 0, "{}.size_bytes()"),
}

#: Per-class size plans: compiled when ``@wire_message`` declares the
#: class, on first use for any other ``Message`` subclass.
_SIZE_PLANS: Dict[type, Callable[[Any], int]] = {}  # repro: lint-ok(module-mutable-state) — per-process memo rebuilt identically from class definitions


def _size_unplanned(message: Any) -> int:
    """Envelope plus :func:`estimate_size` of every field: the walk a
    plan must equal, and what it falls back to on a broken promise."""
    body = WIRE_HEADER_BYTES
    for name in _field_names(type(message)):
        body += estimate_size(getattr(message, name))
    return body


def _compiled(cls: type, lines: List[str], namespace: Dict[str, Any], name: str) -> Any:
    """Compile ``lines`` under the class's own file name, so a profiler
    keeps one row per class instead of merging every class's function
    into one ``<string>`` row."""
    code = compile("\n".join(lines), f"<wire:{cls.__qualname__}>", "exec")
    exec(code, namespace)  # noqa: S102 - built from field names and the tables here only
    return namespace[name]


def _size_plan(cls: type) -> Callable[[Any], int]:
    """Compile ``cls``'s field list into a straight-line sizing function.

    The envelope and the fixed bytes of every promised field fold into
    one constant; what remains is ``len`` per ``str`` field,
    ``size_bytes()`` per ``VersionVector`` field and a full
    :func:`estimate_size` per un-promised one. Promises are checked on
    every call — a value whose type breaks one (annotations are never
    trusted) sends the whole message down :func:`_size_unplanned`.
    """
    fixed = WIRE_HEADER_BYTES
    lines, promises, terms = ["def plan(message):"], [], []
    for i, field in enumerate(dataclasses.fields(cls)):
        lines.append(f"    v{i} = message.{field.name}")
        promised, folded, term = _ANNOTATED.get(field.type, (None, 0, "estimate_size({})"))
        fixed += folded
        if promised is not None:
            promises.append(f"type(v{i}) is {promised.__name__}")
        if term is not None:
            terms.append(term.format(f"v{i}"))
    if promises:
        lines.append(f"    if not ({' and '.join(promises)}):")
        lines.append("        return unplanned(message)")
    lines.append(f"    return {' + '.join([str(fixed), *terms])}")
    namespace: Dict[str, Any] = {
        "estimate_size": estimate_size,
        "unplanned": _size_unplanned,
        "VersionVector": VersionVector,
    }
    plan: Callable[[Any], int] = _compiled(cls, lines, namespace, "plan")
    _SIZE_PLANS[cls] = plan
    return plan


def _direct_init(cls: type, generated: List[inspect.Parameter]) -> Callable[..., None]:
    """``cls``'s dataclass ``__init__`` (whose parameters are
    ``generated``), compiled to store each field straight into the
    instance ``__dict__`` rather than through ``object.__setattr__``:
    the same parameters in the same order with the same default objects
    — a ``default_factory`` field's is the dataclass's own sentinel, and
    the factory is called once per instance that does not pass one."""
    namespace: Dict[str, Any] = {"__name__": cls.__module__}
    params, body = ["self"], ["    fields_ = self.__dict__"]
    for field, parameter in zip(dataclasses.fields(cls), generated):
        name = field.name
        if parameter.default is inspect.Parameter.empty:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = parameter.default
            params.append(f"{name}=_default_{name}")
        if field.default_factory is dataclasses.MISSING:
            body.append(f"    fields_[{name!r}] = {name}")
        else:
            namespace[f"_factory_{name}"] = field.default_factory
            body.append(
                f"    fields_[{name!r}] = _factory_{name}() if {name} is _default_{name} else {name}"
            )
    init: Callable[..., None] = _compiled(
        cls, [f"def __init__({', '.join(params)}):", *body], namespace, "__init__"
    )
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)  # type: ignore[misc]
    return init


def wire_message(cls: Type[_M]) -> Type[_M]:
    """Declare a protocol message: the one spelling for a ``Message``
    subclass (the linter's ``frozen-message`` rule accepts nothing else).

    Applies ``dataclasses.dataclass(frozen=True)`` — frozen semantics,
    ``__eq__``, ``__repr__``, ``__hash__``, pickling, ``fields`` and
    ``replace`` are the dataclass's own — then swaps the generated
    ``__init__`` for :func:`_direct_init`'s and compiles the size plan.
    A message is built once per hop, and ``object.__setattr__`` per
    field was most of what building one cost.

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
    _size_plan(cls)
    return cls


@wire_message
class Message:
    """Base class for all protocol messages.

    Subclasses are declared with :func:`wire_message` (the linter's
    ``frozen-message`` rule enforces it): frozen dataclasses whose
    ``__init__`` and size plan are compiled from the field list.
    ``size_bytes`` sums the envelope and every field. Override it only
    when a field should *not* count toward the wire size (e.g.
    simulation bookkeeping).

    Subclasses whose instances are never mutated after being handed to
    the network may set ``memoize_size = True``: the first
    ``size_bytes()`` result is cached on the instance and returned
    verbatim afterwards. Immutability is what makes the cache — and
    ``copy_size_from`` — sound.
    """

    #: Human-readable tag used in network statistics.
    type_name: ClassVar[str] = "message"

    #: Opt-in per-instance size cache; see class docstring.
    memoize_size: ClassVar[bool] = False

    def size_bytes(self) -> int:
        if self.memoize_size:
            cached = self.__dict__.get("_size_memo")
            if cached is not None:
                return cached
        cls = type(self)
        body = (_SIZE_PLANS.get(cls) or _size_plan(cls))(self)
        if self.memoize_size:
            object.__setattr__(self, "_size_memo", body)
        return body

    def copy_size_from(self, other: "Message") -> "Message":
        """Carry ``other``'s memoized size onto this message.

        Only valid when the caller knows both messages serialise to the
        same number of bytes — e.g. a chain hop where the only fields
        that differ are fixed-width scalars. Returns ``self`` so the
        call can be chained at a send site. A no-op when ``other`` has
        not been sized yet (or does not memoize).
        """
        memo = other.__dict__.get("_size_memo")
        if memo is not None:
            object.__setattr__(self, "_size_memo", memo)
        return self
