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
from typing import Any, Callable, ClassVar, Dict, Tuple

__all__ = ["Message", "estimate_size", "WIRE_HEADER_BYTES"]

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
    # RPC payloads are small dicts of str keys and mostly scalar values:
    # size those two cases without a call apiece.
    total = 4
    scalars = _SCALAR_SIZES
    for key, item in value.items():
        total += 4 + len(key) if type(key) is str else estimate_size(key)
        scalar = scalars.get(type(item))
        total += scalar if scalar is not None else estimate_size(item)
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
#: folds into its constant). Keyed by both spellings — annotations are
#: strings under ``from __future__ import annotations``, types otherwise.
#: A promise is checked against every value (see ``Message.size_bytes``).
_ANNOTATED: Dict[Any, Tuple[type, int]] = {  # repro: lint-ok(module-mutable-state) — constant lookup table, never mutated
    bool: (bool, 1),
    "bool": (bool, 1),
    int: (int, 8),
    "int": (int, 8),
    float: (float, 8),
    "float": (float, 8),
    str: (str, 4),
    "str": (str, 4),
}

#: Per-class size plans, compiled on first use.
_SIZE_PLANS: Dict[type, Callable[[Any], int]] = {}  # repro: lint-ok(module-mutable-state) — per-process memo rebuilt identically from class definitions


def _size_unplanned(message: Any) -> int:
    """Envelope plus :func:`estimate_size` of every field: the walk a
    plan must equal, and what it falls back to on a broken promise."""
    body = WIRE_HEADER_BYTES
    for name in _field_names(type(message)):
        body += estimate_size(getattr(message, name))
    return body


def _size_plan(cls: type) -> Callable[[Any], int]:
    """Compile ``cls``'s field list into a straight-line sizing function.

    The envelope and the fixed bytes of every promised field fold into
    one constant; what remains is ``len`` per ``str`` field and a full
    :func:`estimate_size` per un-promised one. Promises are checked on
    every call — a value whose type breaks one (annotations are never
    trusted) sends the whole message down :func:`_size_unplanned`.
    """
    fixed = WIRE_HEADER_BYTES
    lines, promises, terms = ["def plan(message):"], [], []
    for i, field in enumerate(dataclasses.fields(cls)):
        lines.append(f"    v{i} = message.{field.name}")
        promised, folded = _ANNOTATED.get(field.type, (None, 0))
        fixed += folded
        if promised is None:
            terms.append(f"estimate_size(v{i})")
        else:
            promises.append(f"type(v{i}) is {promised.__name__}")
            if promised is str:
                terms.append(f"len(v{i})")
    if promises:
        lines.append(f"    if not ({' and '.join(promises)}):")
        lines.append("        return unplanned(message)")
    lines.append(f"    return {' + '.join([str(fixed), *terms])}")
    namespace: Dict[str, Any] = {"estimate_size": estimate_size, "unplanned": _size_unplanned}
    exec("\n".join(lines), namespace)  # noqa: S102 - built from field names and the table above only
    plan: Callable[[Any], int] = namespace["plan"]
    _SIZE_PLANS[cls] = plan
    return plan


@dataclasses.dataclass(frozen=True)
class Message:
    """Base class for all protocol messages.

    Subclasses are frozen dataclasses (``@dataclass(frozen=True)`` —
    the linter's ``frozen-message`` rule enforces it); ``size_bytes``
    sums the envelope and every field. Override it only when a field
    should *not* count toward the wire size (e.g. simulation
    bookkeeping).

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
