"""Custom AST linter enforcing simulator purity.

Every rule here exists because the construct it bans has a concrete
failure mode in a discrete-event reproduction:

- ``no-wall-clock`` — ``time.time()`` / ``datetime.now()`` inside
  sim-driven code couples a run to the host clock; two runs with the
  same seed stop being comparable. (Wall-clock is legitimate in the
  perf harness, which *measures* the host — those files are
  whitelisted.)
- ``no-global-random`` — module-level ``random.random()`` et al. draw
  from the interpreter-global stream; any unrelated draw perturbs every
  later one. Randomness must flow from labelled
  :class:`~repro.sim.rng.RngRegistry` streams.
- ``no-unseeded-rng`` — ``random.Random()`` / ``random.Random(None)`` /
  ``random.SystemRandom`` seed from the OS; the run is unreproducible.
- ``no-builtin-hash-seed`` — builtin ``hash()`` on strings is salted by
  ``PYTHONHASHSEED``, so a seed derived from it differs between
  interpreter launches. Use :func:`repro.sim.rng.derive_seed`.
- ``frozen-message`` — protocol messages must be declared with
  ``@wire_message`` (a frozen dataclass whose compiled ``__init__``
  also takes its wire size), and with nothing else: the network reads
  the size taken at build time, so a mutated message would silently
  ship stale byte accounting.
- ``no-mutable-default`` — a mutable default argument is shared across
  calls; protocol state bleeding between actors breaks run isolation.
- ``set-iteration`` — iterating a bare ``set`` in event-ordering code
  makes the event order depend on hash layout. Iterate ``sorted(...)``
  or use an order-preserving container.
- ``slots`` — a class in a hot-path package (``sim``, ``storage``,
  ``core``) that assigns instance attributes but declares no
  ``__slots__`` carries a per-instance ``__dict__`` (~100 B each); at
  simulation scale those dicts dominate the heap. Classes that need a
  ``__dict__`` (dataclasses are exempt automatically; per-instance
  monkeypatch targets carry a pragma) opt out explicitly.
- ``module-mutable-state`` — a module-level mutable container in
  ``sim``/``net``/``storage`` is per-*process* state: under the sharded
  engine (:mod:`repro.sim.shard`) each worker imports its own copy, so
  anything accumulated there silently diverges between workers and
  between worker counts. Caches that are *correct* per-process (intern
  pools, freelists, size memos — rebuilt identically from the same
  inputs) carry a pragma saying so; anything else must live on an
  instance that a single shard owns.
- ``sort-tie-identity`` — a ``sorted()`` / ``heappush`` on a delivery
  path (``sim``/``net``) whose sort key can tie leaves the tie to
  whatever Python compares next: the following tuple element (often an
  object with no ``__lt__`` — a crash waiting for the first tie) or,
  for objects with inherited ordering, something derived from memory
  layout. Either way two runs with the same seed can deliver in
  different orders, which is exactly what the deterministic kernel
  exists to prevent, and what the schedule explorer
  (:mod:`repro.analysis.explore`) relies on to replay counterexamples
  bit-for-bit. Every such site must carry an explicit total-order
  tie-breaker — a ``(time, seq)``-style tuple with a sequence
  component, or a ``key=...sort_key`` function that provides one — or
  a pragma stating why ties are impossible (e.g. sorting distinct
  strings).

Suppression: append ``# repro: lint-ok(<rule>[, <rule>...])`` to the
offending line, or put ``# repro: lint-ok-file(<rule>)`` in the first
ten lines of a file to exempt the whole file from one rule. Per-file
whitelists for genuinely wall-clock code live in
:data:`DEFAULT_WALL_CLOCK_EXEMPT`.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ALL_RULES",
    "DEFAULT_WALL_CLOCK_EXEMPT",
    "EVENT_ORDERING_DIRS",
    "MODULE_STATE_DIRS",
    "SLOTS_DIRS",
    "SORT_TIE_DIRS",
    "LintConfig",
    "LintViolation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_lint",
]

# ----------------------------------------------------------------------
# rule inventory
# ----------------------------------------------------------------------

RULE_NO_WALL_CLOCK = "no-wall-clock"
RULE_NO_GLOBAL_RANDOM = "no-global-random"
RULE_NO_UNSEEDED_RNG = "no-unseeded-rng"
RULE_NO_BUILTIN_HASH_SEED = "no-builtin-hash-seed"
RULE_FROZEN_MESSAGE = "frozen-message"
RULE_NO_MUTABLE_DEFAULT = "no-mutable-default"
RULE_SET_ITERATION = "set-iteration"
RULE_SLOTS = "slots"
RULE_MODULE_STATE = "module-mutable-state"
RULE_SORT_TIE = "sort-tie-identity"

ALL_RULES: Tuple[str, ...] = (
    RULE_NO_WALL_CLOCK,
    RULE_NO_GLOBAL_RANDOM,
    RULE_NO_UNSEEDED_RNG,
    RULE_NO_BUILTIN_HASH_SEED,
    RULE_FROZEN_MESSAGE,
    RULE_NO_MUTABLE_DEFAULT,
    RULE_SET_ITERATION,
    RULE_SLOTS,
    RULE_MODULE_STATE,
    RULE_SORT_TIE,
)

#: Files (paths relative to ``src/repro``) allowed to read the wall
#: clock: the perf tiers measure the host machine by design.
DEFAULT_WALL_CLOCK_EXEMPT: Tuple[str, ...] = (
    "perf/protocol.py",
    "perf/parallel.py",
    "perf/partial.py",
)

#: Directories (relative to ``src/repro``) whose code runs inside the
#: event loop and therefore must not iterate unordered sets: a different
#: hash layout would reorder sends and break seed-stability.
EVENT_ORDERING_DIRS: Tuple[str, ...] = (
    "sim",
    "net",
    "core",
    "cluster",
    "baselines",
    "storage",
)

#: Directories (relative to ``src/repro``) whose classes are allocated
#: at simulation scale and therefore must declare ``__slots__`` (or
#: carry a pragma explaining why they need a ``__dict__``).
SLOTS_DIRS: Tuple[str, ...] = (
    "sim",
    "storage",
    "core",
)

#: Directories (relative to ``src/repro``) whose modules are imported
#: independently by every shard worker process: module-level mutable
#: containers there are per-process state that diverges across workers.
MODULE_STATE_DIRS: Tuple[str, ...] = (
    "sim",
    "net",
    "storage",
)

#: Directories (relative to ``src/repro``) on the message-delivery path:
#: any sort there decides delivery order, so tied sort keys make the
#: order fall through to object identity / memory layout.
SORT_TIE_DIRS: Tuple[str, ...] = (
    "sim",
    "net",
)

#: Constructors whose call produces a mutable container.
_MUTABLE_CONSTRUCTORS: Set[str] = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
}

#: Wall-clock functions per module.
_WALL_CLOCK_FUNCS: Dict[str, Set[str]] = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: Module-level ``random`` functions that draw from (or reseed) the
#: interpreter-global stream.
_GLOBAL_RANDOM_FUNCS: Set[str] = {
    "random",
    "randint",
    "randrange",
    "getrandbits",
    "randbytes",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "seed",
}

_PRAGMA_LINE = re.compile(r"#\s*repro:\s*lint-ok\(([^)]*)\)")
_PRAGMA_FILE = re.compile(r"#\s*repro:\s*lint-ok-file\(([^)]*)\)")


@dataclasses.dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Which rules apply where.

    ``wall_clock_exempt`` entries are path suffixes (POSIX separators)
    matched against the linted file; ``event_ordering_dirs`` scopes the
    ``set-iteration`` rule to code that runs inside the event loop;
    ``slots_dirs`` scopes the ``slots`` rule to the hot-path packages
    whose instances exist in per-key / per-event quantities;
    ``module_state_dirs`` scopes the ``module-mutable-state`` rule to
    the packages every shard worker imports independently;
    ``sort_tie_dirs`` scopes the ``sort-tie-identity`` rule to the
    packages whose sorts decide message-delivery order.
    """

    rules: Tuple[str, ...] = ALL_RULES
    wall_clock_exempt: Tuple[str, ...] = DEFAULT_WALL_CLOCK_EXEMPT
    event_ordering_dirs: Tuple[str, ...] = EVENT_ORDERING_DIRS
    slots_dirs: Tuple[str, ...] = SLOTS_DIRS
    module_state_dirs: Tuple[str, ...] = MODULE_STATE_DIRS
    sort_tie_dirs: Tuple[str, ...] = SORT_TIE_DIRS

    def rules_for(self, path: Path) -> Set[str]:
        """The subset of rules that applies to ``path``."""
        posix = path.as_posix()
        active = set(self.rules)
        if RULE_NO_WALL_CLOCK in active and any(
            posix.endswith(f"repro/{suffix}") for suffix in self.wall_clock_exempt
        ):
            active.discard(RULE_NO_WALL_CLOCK)
        if RULE_SET_ITERATION in active and "/repro/" in posix:
            rel = posix.split("/repro/", 1)[1]
            top = rel.split("/", 1)[0]
            if "/" in rel and top not in self.event_ordering_dirs:
                active.discard(RULE_SET_ITERATION)
        if RULE_SLOTS in active and "/repro/" in posix:
            rel = posix.split("/repro/", 1)[1]
            top = rel.split("/", 1)[0]
            if "/" not in rel or top not in self.slots_dirs:
                active.discard(RULE_SLOTS)
        if RULE_MODULE_STATE in active and "/repro/" in posix:
            rel = posix.split("/repro/", 1)[1]
            top = rel.split("/", 1)[0]
            if "/" not in rel or top not in self.module_state_dirs:
                active.discard(RULE_MODULE_STATE)
        if RULE_SORT_TIE in active and "/repro/" in posix:
            rel = posix.split("/repro/", 1)[1]
            top = rel.split("/", 1)[0]
            if "/" not in rel or top not in self.sort_tie_dirs:
                active.discard(RULE_SORT_TIE)
        return active


# ----------------------------------------------------------------------
# the visitor
# ----------------------------------------------------------------------


class _ImportTracker:
    """Resolve names back to the module attribute they were imported as."""

    def __init__(self) -> None:
        #: local alias -> module name (``import time as t`` => t -> time)
        self.modules: Dict[str, str] = {}
        #: local alias -> (module, attr) (``from time import time as now``)
        self.members: Dict[str, Tuple[str, str]] = {}

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.members[alias.asname or alias.name] = (node.module, alias.name)

    def resolve_call(self, func: ast.expr) -> Optional[Tuple[str, str]]:
        """``(module, attr)`` a called expression resolves to, if known.

        Handles ``module.attr(...)``, ``from module import attr`` +
        ``attr(...)``, and ``datetime.datetime.now(...)`` style chains
        (collapsed to the root module plus the final attribute).
        """
        if isinstance(func, ast.Name):
            return self.members.get(func.id)
        if isinstance(func, ast.Attribute):
            parts: List[str] = [func.attr]
            value = func.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                root = value.id
                module = self.modules.get(root)
                if module is not None:
                    return (module, parts[0])
                member = self.members.get(root)
                if member is not None:
                    # e.g. ``from datetime import datetime`` + datetime.now()
                    return (f"{member[0]}.{member[1]}", parts[0])
        return None


def _is_seedy_name(name: str) -> bool:
    lowered = name.lower()
    return "seed" in lowered or "rng" in lowered


def _contains_builtin_hash(node: ast.AST) -> Optional[ast.Call]:
    """The first builtin ``hash(...)`` call inside ``node``, if any."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "hash"
        ):
            return child
    return None


class _Linter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        active: Set[str],
        set_names: Optional[Set[str]] = None,
        set_attrs: Optional[Set[str]] = None,
    ) -> None:
        self.path = path
        self.active = active
        self.violations: List[LintViolation] = []
        self.imports = _ImportTracker()
        #: names/attributes known to hold bare sets in this module,
        #: collected in a pre-pass so use-before-binding is still caught
        self._set_names: Set[str] = set_names if set_names is not None else set()
        self._set_attrs: Set[str] = set_attrs if set_attrs is not None else set()

    # -- helpers --------------------------------------------------------
    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.active:
            self.violations.append(
                LintViolation(
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    rule=rule,
                    message=message,
                )
            )

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve_call(node.func)
        if resolved is not None:
            module, attr = resolved
            self._check_wall_clock(node, module, attr)
            self._check_global_random(node, module, attr)
            self._check_unseeded_rng(node, module, attr)
            self._check_hash_seed_call(node, module, attr)
        elif isinstance(node.func, ast.Name) and node.func.id == "derive_seed":
            self._check_hash_in_args(node, "derive_seed")
        self._check_sort_tie(node)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, module: str, attr: str) -> None:
        root = module.split(".")[0]
        banned = _WALL_CLOCK_FUNCS.get(root)
        if banned is not None and attr in banned:
            self._add(
                node,
                RULE_NO_WALL_CLOCK,
                f"wall-clock call {module}.{attr}() in sim-driven code; "
                "use Simulator.now / virtual time",
            )

    def _check_global_random(self, node: ast.Call, module: str, attr: str) -> None:
        if module == "random" and attr in _GLOBAL_RANDOM_FUNCS:
            self._add(
                node,
                RULE_NO_GLOBAL_RANDOM,
                f"module-level random.{attr}() draws from the interpreter-global "
                "stream; use an RngRegistry stream",
            )

    def _check_unseeded_rng(self, node: ast.Call, module: str, attr: str) -> None:
        if module == "random" and attr == "SystemRandom":
            self._add(
                node,
                RULE_NO_UNSEEDED_RNG,
                "random.SystemRandom draws OS entropy; simulations must seed "
                "from RngRegistry/derive_seed",
            )
            return
        if module == "random" and attr == "Random":
            unseeded = not node.args and not node.keywords
            none_seeded = bool(node.args) and (
                isinstance(node.args[0], ast.Constant) and node.args[0].value is None
            )
            if unseeded or none_seeded:
                self._add(
                    node,
                    RULE_NO_UNSEEDED_RNG,
                    "random.Random() without an explicit seed is OS-seeded and "
                    "unreproducible; pass a derive_seed(...) value",
                )

    def _check_hash_seed_call(self, node: ast.Call, module: str, attr: str) -> None:
        if (module, attr) == ("random", "Random") or attr == "derive_seed" or _is_seedy_name(attr):
            self._check_hash_in_args(node, f"{module}.{attr}")

    def _check_hash_in_args(self, node: ast.Call, context: str) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            found = _contains_builtin_hash(arg)
            if found is not None:
                self._add(
                    found,
                    RULE_NO_BUILTIN_HASH_SEED,
                    f"builtin hash() feeding {context}(...) is salted by "
                    "PYTHONHASHSEED; use repro.sim.rng.derive_seed",
                )

    # -- assignments (hash-seed + set tracking) -------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_seed_assignment(target, node.value)
            self._track_set_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_seed_assignment(node.target, node.value)
            self._track_set_binding(node.target, node.value)
        self.generic_visit(node)

    def _target_name(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _check_seed_assignment(self, target: ast.expr, value: ast.expr) -> None:
        name = self._target_name(target)
        if name is None or not _is_seedy_name(name):
            return
        found = _contains_builtin_hash(value)
        if found is not None:
            self._add(
                found,
                RULE_NO_BUILTIN_HASH_SEED,
                f"builtin hash() assigned to seed-like name {name!r} is salted "
                "by PYTHONHASHSEED; use repro.sim.rng.derive_seed",
            )

    def _is_bare_set_expr(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Set):
            return True
        if isinstance(value, ast.SetComp):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("set", "frozenset")
        return False

    def _track_set_binding(self, target: ast.expr, value: ast.expr) -> None:
        if not self._is_bare_set_expr(value):
            return
        if isinstance(target, ast.Name):
            self._set_names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._set_attrs.add(target.attr)

    # -- mutable defaults -----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_mutable_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self.generic_visit(node)

    def _check_mutable_defaults(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._add(
                    default,
                    RULE_NO_MUTABLE_DEFAULT,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )

    # -- frozen messages -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._subclasses_message(node):
            self._check_wire_message(node)
        else:
            self._check_slots(node)
        self.generic_visit(node)

    def _subclasses_message(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id == "Message":
                return True
            if isinstance(base, ast.Attribute) and base.attr == "Message":
                return True
        return False

    def _check_wire_message(self, node: ast.ClassDef) -> None:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Name) and deco.id == "wire_message":
                return
            if isinstance(deco, ast.Attribute) and deco.attr == "wire_message":
                return
        self._add(
            node,
            RULE_FROZEN_MESSAGE,
            f"protocol message {node.name} must be declared with "
            "@wire_message: a frozen dataclass (the wire-size memo assumes "
            "messages never mutate after construction) whose __init__ and "
            "size plan are compiled from its fields",
        )

    # -- slots ------------------------------------------------------------
    def _check_slots(self, node: ast.ClassDef) -> None:
        if RULE_SLOTS not in self.active:
            return
        if self._is_dataclass_decorated(node):
            # Dataclass layout (including frozen messages, which memoize
            # their wire size onto the instance) is the dataclass's
            # business — instance attrs come from field declarations,
            # not method-body assignments.
            return
        if self._has_slots_declaration(node):
            return
        attrs = self._instance_attrs(node)
        if not attrs:
            return
        preview = ", ".join(sorted(attrs)[:4])
        if len(attrs) > 4:
            preview += ", ..."
        self._add(
            node,
            RULE_SLOTS,
            f"hot-path class {node.name} assigns instance attributes "
            f"({preview}) but declares no __slots__; every instance "
            "carries a __dict__ — add __slots__ or a "
            "'# repro: lint-ok(slots)' pragma explaining why the dict "
            "is needed",
        )

    def _is_dataclass_decorated(self, node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else None
            )
            if name == "dataclass":
                return True
        return False

    def _has_slots_declaration(self, node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    def _instance_attrs(self, node: ast.ClassDef) -> Set[str]:
        """``self.<attr>`` assignment targets across the class's methods."""
        attrs: Set[str] = set()
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.walk(stmt):
                targets: List[ast.expr] = []
                if isinstance(child, ast.Assign):
                    targets = list(child.targets)
                elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                    targets = [child.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    # -- set iteration ---------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _check_set_iteration(self, iter_node: ast.expr) -> None:
        if self._is_bare_set_expr(iter_node):
            self._add(
                iter_node,
                RULE_SET_ITERATION,
                "iteration over a bare set in event-ordering code depends on "
                "hash layout; iterate sorted(...) or an ordered container",
            )
            return
        if isinstance(iter_node, ast.Name) and iter_node.id in self._set_names:
            self._add(
                iter_node,
                RULE_SET_ITERATION,
                f"iteration over set-valued name {iter_node.id!r} in "
                "event-ordering code; iterate sorted(...) or an ordered container",
            )
        elif (
            isinstance(iter_node, ast.Attribute)
            and isinstance(iter_node.value, ast.Name)
            and iter_node.value.id == "self"
            and iter_node.attr in self._set_attrs
        ):
            self._add(
                iter_node,
                RULE_SET_ITERATION,
                f"iteration over set-valued attribute self.{iter_node.attr} in "
                "event-ordering code; iterate sorted(...) or an ordered container",
            )

    # -- sort ties on delivery paths --------------------------------------
    def _check_sort_tie(self, node: ast.Call) -> None:
        """Flag ``sorted()`` / ``heappush`` whose key can tie.

        A tie in the leading key components makes Python compare whatever
        comes next — another tuple element (TypeError on the first tie if
        it lacks ``__lt__``) or an object ordering derived from memory
        layout. Both break seed-stable delivery order. A site is
        considered safe when the ordered value visibly carries a sequence
        tie-breaker (a tuple with a ``seq``-named component) or uses a
        designated ``...sort_key`` function; everything else needs a
        pragma arguing why ties are impossible.
        """
        if RULE_SORT_TIE not in self.active:
            return
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name is None:
            return
        if name.lstrip("_") == "heappush":
            if len(node.args) >= 2 and not self._has_seq_tiebreak(node.args[1]):
                self._add(
                    node,
                    RULE_SORT_TIE,
                    "heappush entry on a delivery path has no visible "
                    "(time, seq) tie-breaker: tied priorities fall through "
                    "to comparing the next element; push a tuple with a "
                    "monotonic seq component or add a "
                    "'# repro: lint-ok(sort-tie-identity)' pragma stating "
                    "why ties are impossible",
                )
        elif name == "sorted" and isinstance(func, ast.Name):
            key = next(
                (kw.value for kw in node.keywords if kw.arg == "key"), None
            )
            if key is None:
                self._add(
                    node,
                    RULE_SORT_TIE,
                    "sorted() on a delivery path without an explicit "
                    "tie-breaking key: elements whose ordering can tie "
                    "fall back to identity/insertion order; sort by an "
                    "explicit (time, seq)-style key or add a "
                    "'# repro: lint-ok(sort-tie-identity)' pragma stating "
                    "why ties are impossible",
                )
            elif not self._is_total_order_key(key):
                self._add(
                    node,
                    RULE_SORT_TIE,
                    "sorted() key on a delivery path can tie without a "
                    "(time, seq) tie-breaker: return a tuple ending in a "
                    "monotonic seq component, use a designated ...sort_key "
                    "function, or add a "
                    "'# repro: lint-ok(sort-tie-identity)' pragma stating "
                    "why ties are impossible",
                )

    def _has_seq_tiebreak(self, item: ast.expr) -> bool:
        if not isinstance(item, ast.Tuple):
            return False
        return any(self._is_seq_like(el) for el in item.elts)

    def _is_seq_like(self, expr: ast.expr) -> bool:
        name = (
            expr.id
            if isinstance(expr, ast.Name)
            else expr.attr
            if isinstance(expr, ast.Attribute)
            else None
        )
        return name is not None and "seq" in name.lower()

    def _is_total_order_key(self, key: ast.expr) -> bool:
        name = (
            key.id
            if isinstance(key, ast.Name)
            else key.attr
            if isinstance(key, ast.Attribute)
            else None
        )
        if name is not None and "sort_key" in name:
            return True
        if isinstance(key, ast.Lambda):
            body = key.body
            if isinstance(body, ast.Tuple) and any(
                self._is_seq_like(el) for el in body.elts
            ):
                return True
        return False

    # -- module-level mutable state ---------------------------------------
    def check_module_state(self, tree: ast.Module) -> None:
        """Flag top-level bindings of mutable containers.

        Walks module-scope statements only (descending through ``if`` /
        ``try`` / ``with`` blocks but never into function or class
        bodies): the rule is about state shared by *everything in the
        process*, which under the sharded engine means state that
        diverges between worker processes.
        """
        if RULE_MODULE_STATE not in self.active:
            return
        self._walk_module_scope(tree.body)

    def _walk_module_scope(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            pairs: List[Tuple[ast.expr, ast.expr]] = []
            if isinstance(stmt, ast.Assign):
                pairs = [(target, stmt.value) for target in stmt.targets]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                pairs = [(stmt.target, stmt.value)]
            for target, value in pairs:
                self._check_module_state_binding(stmt, target, value)
            # Descend through module-level control flow — a pool built
            # inside ``try: ... except ImportError`` is still module state.
            for attr in ("body", "orelse", "finalbody", "handlers"):
                blocks = getattr(stmt, attr, None)
                if not blocks:
                    continue
                if attr == "handlers":
                    for handler in blocks:
                        self._walk_module_scope(handler.body)
                else:
                    self._walk_module_scope(blocks)

    def _check_module_state_binding(
        self, stmt: ast.stmt, target: ast.expr, value: ast.expr
    ) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name.startswith("__") and name.endswith("__"):
            # Dunders (__all__ et al.) are interpreter/module conventions,
            # not shared protocol state.
            return
        if not self._is_mutable_container_expr(value):
            return
        self._add(
            stmt,
            RULE_MODULE_STATE,
            f"module-level mutable container {name!r}: each shard worker "
            "process gets its own copy, so contents silently diverge across "
            "workers; move it onto a shard-owned instance, or add a "
            "'# repro: lint-ok(module-mutable-state)' pragma if it is a "
            "per-process cache rebuilt identically from the same inputs",
        )
    def _is_mutable_container_expr(self, value: ast.expr) -> bool:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            return name in _MUTABLE_CONSTRUCTORS
        return False


# ----------------------------------------------------------------------
# pragma handling + entry points
# ----------------------------------------------------------------------


def _collect_set_bindings(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Names / ``self.<attr>`` targets bound to bare sets anywhere in the
    module — a pre-pass so iteration sites before the binding are caught."""

    def is_set_expr(value: ast.expr) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )

    names: Set[str] = set()
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        pairs: List[Tuple[ast.expr, ast.expr]] = []
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        for target, value in pairs:
            if not is_set_expr(value):
                continue
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return names, attrs


def _parse_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """(line -> suppressed rules, file-wide suppressed rules)."""
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_LINE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            per_line.setdefault(lineno, set()).update(rules)
        if lineno <= 10:
            match = _PRAGMA_FILE.search(line)
            if match:
                whole_file.update(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
    return per_line, whole_file


def lint_source(
    source: str, path: str = "<string>", config: Optional[LintConfig] = None
) -> List[LintViolation]:
    """Lint one source string; ``path`` scopes per-file rule selection."""
    config = config or LintConfig()
    active = config.rules_for(Path(path))
    if not active:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="syntax-error",
                message=str(exc.msg),
            )
        ]
    per_line, whole_file = _parse_pragmas(source)
    set_names, set_attrs = _collect_set_bindings(tree)
    linter = _Linter(path, active - whole_file, set_names, set_attrs)
    linter.visit(tree)
    linter.check_module_state(tree)
    seen: Set[LintViolation] = set()
    out: List[LintViolation] = []
    for violation in sorted(
        linter.violations, key=lambda v: (v.line, v.col, v.rule, v.message)
    ):
        if violation.rule in per_line.get(violation.line, ()):
            continue
        dedupe = dataclasses.replace(violation, message="")
        if dedupe in seen:
            continue
        seen.add(dedupe)
        out.append(violation)
    return out


def lint_file(path: Path, config: Optional[LintConfig] = None) -> List[LintViolation]:
    return lint_source(path.read_text(encoding="utf-8"), str(path), config)


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path], config: Optional[LintConfig] = None
) -> List[LintViolation]:
    """Lint files and directories (recursively); stable ordering."""
    violations: List[LintViolation] = []
    for path in _iter_python_files(paths):
        violations.extend(lint_file(path, config))
    return violations


def default_lint_root() -> Path:
    """The ``src/repro`` tree this module was loaded from."""
    return Path(__file__).resolve().parent.parent


def run_lint(
    paths: Optional[Sequence[str]] = None, config: Optional[LintConfig] = None
) -> List[LintViolation]:
    """Entry point used by the CLI: lint ``paths`` or the whole package."""
    targets = (
        [Path(p) for p in paths] if paths else [default_lint_root()]
    )
    return lint_paths(targets, config)
