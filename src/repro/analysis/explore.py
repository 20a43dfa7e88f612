"""Systematic small-scope schedule exploration (bounded model checking).

The seeded simulator checks the paper's invariants along *one* schedule
per seed. This module instead drives the deterministic kernel through
**all** message-delivery interleavings and crash/recover placements of a
small scope (a couple of datacenters, two-to-three node chains, a
handful of operations), runs the terminal-state oracles after every
complete schedule, and — on a violation — shrinks the choice trace to a
minimal counterexample that replays from a seed-independent schedule
file.

Execution model
---------------
Every protocol message (everything except failure-detector heartbeats)
is diverted into a per-link FIFO queue instead of being delivered by the
latency model. The real network already guarantees per-link FIFO, so the
head of each ``(src, dst)`` queue is the only deliverable message on
that link and a *choice* is simply "which link delivers next" — plus,
optionally, "fire one of the scope's crash/recover actions now". The
kernel consults the attached :class:`~repro.sim.kernel.DeliveryChooser`
exactly when virtual time would otherwise advance, which pins the
discipline: **all pending messages drain before any timer fires**.
Timeouts and retries therefore never race the deliveries being
explored; they only run on schedules that leave a message queued across
a quiescent instant — which the drain rule forbids. Recording stops at
client-visible quiescence (all scripted operations completed); the
remaining in-flight metadata then drains in canonical order.

Partial-order reduction
-----------------------
Depth-first enumeration with conflict-driven *backtrack sets*
(Flanagan–Godefroid dynamic POR) plus *sleep sets* for deduplication.
In ``mode="dpor"`` a node's alternatives start empty; after each
executed schedule, every transition in the new suffix is compared
against **all** earlier transitions on the path, and wherever the pair
is dependent the later choice is added to the earlier node's backtrack
set (or, if not enabled there, the whole enabled set is — the classical
conservative fallback). Comparing against *every* earlier dependent
node, not just the latest, is what catches chains of conflicts with no
happens-before tracking. Deliveries that happen *after* client-visible
quiescence (the canonical settle drain) still feed the same conflict
analysis — without those edges, a message the canonical order defers
past quiescence would never be proposed earlier, and bugs that need it
delivered mid-workload would be missed.

Two enabled choices are independent when both are message deliveries to
different destination actors, neither destination is a cluster manager
(its view fan-out mutates other actors directly), and the link sets
they enqueue onto are disjoint — the enqueue footprint is recorded live
by the diversion hook during each delivery's same-instant cascade, i.e.
the :func:`repro.net.network.commutativity_fingerprint` refined with
observed effects. Everything else — and every fault action — is treated
as dependent, which errs on the side of exploring too much, never too
little. ``mode="naive"`` disables the reduction (every node starts with
its full enabled set) for coverage-ratio reporting.

Fault actions can be *gated* (:attr:`FaultAction.after_put`): the
action only becomes eligible once a put-request for the named key has
been delivered, which places "the fault lands mid-operation" scenarios
on (or near) the canonical schedule instead of a long chain of
deviations away.

The proving ground
------------------
Each seeded protocol mutation in
:data:`repro.analysis.mutations.MUTATIONS` has a scenario here sized
so the explorer provably finds the bug (and the clean tree provably
passes the identical scope). See :data:`SCENARIOS`. A run seeds its
scope's mutations as class patches around the whole run, store build
included, and removes them when the run ends; the production modules
never name them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.invariants import ChainInvariantMonitor
from repro.analysis.mutations import MUTATIONS, mutated
from repro.baselines.registry import build_store
from repro.checker.causal import check_causal
from repro.checker.history import GET, PUT, History
from repro.cluster.membership import RingView
from repro.core.datastore import ChainReactionStore
from repro.errors import CheckerError, ReproError
from repro.net.message import Message
from repro.net.network import Address
from repro.sim.kernel import DeliveryChooser, Simulator
from repro.sim.process import Future, spawn
from repro.storage.version import VersionVector

__all__ = [
    "Choice",
    "ExploreError",
    "ExploreOp",
    "ExploreReport",
    "ExploreScope",
    "FaultAction",
    "ReplayResult",
    "SCENARIOS",
    "Schedule",
    "Violation",
    "explore_scope",
    "load_schedule",
    "minimize_counterexample",
    "replay_schedule",
    "save_schedule",
    "scenario",
    "scenario_names",
    "save_counterexample",
]

#: schedule-file format version (bump on incompatible change)
SCHEDULE_FORMAT = 1

#: message types that stay on the ordinary timer-driven path — the
#: failure detector is infrastructure, not explored protocol behaviour
#: (scenarios disable the detector via a huge failure_timeout anyway).
#: The clock plane's periodic traffic is diverted like everything else:
#: the per-link FIFO queues preserve the ship-before-vector same-link
#: ordering its correctness argument leans on, while letting schedules
#: interleave the (cross-link) injections, ticks, and reads.
_UNDIVERTED = frozenset({"heartbeat"})

#: virtual seconds granted to pre-scenario repair traffic (view changes
#: from scripted pre-crashes) before exploration begins
_PRESETTLE = 0.3

#: run_window slice while driving a schedule
_SLICE = 0.25

#: hard cap on decisions in one schedule — a runaway guard, far above
#: any real small-scope trace
_STEP_CAP = 4000

#: virtual_nodes used by every explore scope (and its key probing)
_VNODES = 8


class ExploreError(ReproError):
    """Exploration/replay failed structurally (not a protocol violation)."""


class _PruneRun(Exception):
    """Internal: every enabled choice is slept — this continuation is
    covered by a sibling; abandon the schedule without oracle checks."""


# ----------------------------------------------------------------------
# choices, scopes, schedules
# ----------------------------------------------------------------------
class Choice(NamedTuple):
    """One scheduling decision.

    ``kind == "msg"``: deliver the head of the ``src -> dst`` link queue
    (addresses as ``"site:node"`` strings). ``kind == "act"``: fire the
    named fault action against ``target`` (``"site:server"``).

    A tuple, so the explorer's millions of hashes and comparisons run in C.
    """

    kind: str
    src: str = ""
    dst: str = ""
    action: str = ""
    target: str = ""

    def sort_key(self) -> Tuple[int, str, str, str, str]:
        # actions first: crash placements near the root fail fast
        return (0 if self.kind == "act" else 1, self.action, self.target, self.src, self.dst)

    def label(self) -> str:
        if self.kind == "act":
            return f"{self.action}({self.target})"
        return f"{self.src}->{self.dst}"

    def to_wire(self, type_name: str = "") -> Dict[str, str]:
        if self.kind == "act":
            return {"kind": "act", "action": self.action, "target": self.target}
        out = {"kind": "msg", "src": self.src, "dst": self.dst}
        if type_name:
            out["type"] = type_name
        return out

    @staticmethod
    def from_wire(data: Dict[str, str]) -> "Choice":
        if data.get("kind") == "act":
            return Choice(kind="act", action=data["action"], target=data["target"])
        return Choice(kind="msg", src=data["src"], dst=data["dst"])


@dataclasses.dataclass(frozen=True)
class ExploreOp:
    """One scripted client operation (``kind`` in put/get/pause)."""

    session: str
    site: str
    kind: str
    key: str = ""
    value: Any = None
    delay: float = 0.0


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """An explorable fault placement: ``action`` in crash/recover.

    ``after_put`` (optional) holds the action back until a client put
    for that key has been *delivered* to a server. Without it the
    canonical schedule fires every action at the first decision point —
    fine for most scopes, but when the interesting race is
    "fault lands while an operation is in flight", reaching it from an
    eager-fault canonical path takes a long chain of coordinated
    deviations that deep-first search never assembles within budget.
    The gate moves the canonical path inside the race window instead."""

    action: str
    site: str
    server: str
    after_put: Optional[str] = None

    @property
    def target(self) -> str:
        return f"{self.site}:{self.server}"


@dataclasses.dataclass(frozen=True)
class ExploreScope:
    """A fully-specified small scope: deployment, workload, faults.

    ``pre_crash`` servers are crashed (and removed from membership)
    *before* exploration starts — the repair traffic settles on the
    canonical path and is not part of the choice space. ``preload`` keys
    are installed converged (``store.preload``) once the monitor is
    attached, before the first operation. ``actions`` are
    the explorable placements: each may fire at most once, at any
    decision point where at least one message is also deliverable.
    """

    name: str
    sites: Tuple[str, ...]
    servers_per_site: int
    chain_length: int
    ack_k: int
    ops: Tuple[ExploreOp, ...]
    pre_crash: Tuple[Tuple[str, str], ...] = ()
    preload: Tuple[str, ...] = ()
    actions: Tuple[FaultAction, ...] = ()
    overrides: Tuple[Tuple[str, Any], ...] = ()
    mutations: Tuple[str, ...] = ()
    settle: float = 1.0
    horizon: float = 20.0
    check_progress: bool = True
    check_convergence: bool = True
    check_stability_convergence: bool = True

    def __post_init__(self) -> None:
        unknown = [m for m in self.mutations if m not in MUTATIONS]
        if unknown:
            raise ExploreError(
                f"unknown mutation(s) {unknown}; choose from {sorted(MUTATIONS)}"
            )

    def config_overrides(self) -> Dict[str, Any]:
        """The deterministic-exploration base config, plus scope tweaks."""
        merged: Dict[str, Any] = {
            # zero service time and tiny flat latencies: a delivery's
            # whole cascade stays on one instant, so ordering is decided
            # purely by explored choices, never by latency arithmetic
            "service_time": 0.0,
            "lan_median": 1e-4,
            "wan_median": 1e-4,
            # the failure detector never fires (pre-crashes are applied
            # to membership explicitly); heartbeats still flow
            "failure_timeout": 1e6,
            # deterministic read targets: every read goes to the tail
            "allow_prefix_reads": False,
            "degraded_reads": False,
            "virtual_nodes": _VNODES,
            "dep_wait_timeout": 0.3,
            "backoff_jitter": 0.0,
        }
        merged.update(dict(self.overrides))
        return merged

    def without_mutations(self) -> "ExploreScope":
        """The identical scope on the clean (fixed) tree."""
        return dataclasses.replace(self, mutations=())

    def on_plane(self, plane: str) -> "ExploreScope":
        """The identical scope on stabilization plane ``plane``."""
        return dataclasses.replace(self, overrides=self.overrides + (("stability", plane),))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "sites": list(self.sites),
            "servers_per_site": self.servers_per_site,
            "chain_length": self.chain_length,
            "ack_k": self.ack_k,
            "ops": [dataclasses.asdict(op) for op in self.ops],
            "pre_crash": [list(pair) for pair in self.pre_crash],
            "preload": list(self.preload),
            "actions": [dataclasses.asdict(act) for act in self.actions],
            "overrides": [list(item) for item in self.overrides],
            "mutations": list(self.mutations),
            "settle": self.settle,
            "horizon": self.horizon,
            "check_progress": self.check_progress,
            "check_convergence": self.check_convergence,
            "check_stability_convergence": self.check_stability_convergence,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ExploreScope":
        return ExploreScope(
            name=data["name"],
            sites=tuple(data["sites"]),
            servers_per_site=data["servers_per_site"],
            chain_length=data["chain_length"],
            ack_k=data["ack_k"],
            ops=tuple(ExploreOp(**op) for op in data["ops"]),
            pre_crash=tuple((s, n) for s, n in data.get("pre_crash", ())),
            preload=tuple(data.get("preload", ())),
            actions=tuple(FaultAction(**act) for act in data.get("actions", ())),
            overrides=tuple((k, v) for k, v in data.get("overrides", ())),
            mutations=tuple(data.get("mutations", ())),
            settle=data.get("settle", 1.0),
            horizon=data.get("horizon", 20.0),
            check_progress=data.get("check_progress", True),
            check_convergence=data.get("check_convergence", True),
            check_stability_convergence=data.get("check_stability_convergence", True),
        )


@dataclasses.dataclass(frozen=True)
class Violation:
    """One oracle finding at a terminal state."""

    kind: str
    subject: str
    key: str
    detail: str

    def as_tuple(self) -> Tuple[str, str, str, str]:
        return (self.kind, self.subject, self.key, self.detail)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject} key={self.key}: {self.detail}"


def violation_signature(violations: Sequence[Violation]) -> str:
    """A stable digest of an oracle outcome, for bit-for-bit replay
    comparison. Order-insensitive (violation lists are sorted first)."""
    items = sorted(v.as_tuple() for v in violations)
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class Schedule:
    """A replayable counterexample: scope + explicit delivery order.

    Seed-independent: the trace pins every message delivery and fault
    placement explicitly, so replay does not depend on latency samples
    or any RNG stream.
    """

    scope: ExploreScope
    trace: Tuple[Choice, ...]
    types: Tuple[str, ...]
    signature: str
    violations: Tuple[Violation, ...]

    def to_dict(self) -> Dict[str, Any]:
        wire = []
        for i, choice in enumerate(self.trace):
            type_name = self.types[i] if i < len(self.types) else ""
            wire.append(choice.to_wire(type_name))
        return {
            "format": SCHEDULE_FORMAT,
            "scope": self.scope.to_dict(),
            "trace": wire,
            "signature": self.signature,
            "violations": [list(v.as_tuple()) for v in self.violations],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Schedule":
        if data.get("format") != SCHEDULE_FORMAT:
            raise ExploreError(
                f"unsupported schedule format {data.get('format')!r} "
                f"(expected {SCHEDULE_FORMAT})"
            )
        trace = tuple(Choice.from_wire(entry) for entry in data["trace"])
        types = tuple(entry.get("type", "") for entry in data["trace"])
        violations = tuple(
            Violation(*item) for item in data.get("violations", ())
        )
        return Schedule(
            scope=ExploreScope.from_dict(data["scope"]),
            trace=trace,
            types=types,
            signature=data["signature"],
            violations=violations,
        )


def save_schedule(path: str, schedule: Schedule) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return Schedule.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# one schedule: runner
# ----------------------------------------------------------------------
#: a delivery's observed footprint: (destination actor, links enqueued
#: onto during its same-instant cascade)
_Effects = Tuple[str, frozenset]


@dataclasses.dataclass
class _Frame:
    """Per-decision record handed back to the DFS driver."""

    enabled: Tuple[Choice, ...]
    chosen: Choice
    effects: Optional[_Effects]
    sleep: List[Tuple[Choice, _Effects]]


@dataclasses.dataclass
class _RunOutcome:
    frames: List[_Frame]
    trace: List[Choice]
    types: List[str]
    pruned: bool
    violations: List[Violation]
    signature: str
    ops_done: bool
    #: deliveries made during the canonical post-quiescence drain, with
    #: their observed effects. Not branchable — but the conflict analysis
    #: must see them: a message the canonical order defers past client
    #: quiescence still conflicts with recorded transitions, and without
    #: these edges no backtrack point ever proposes delivering it earlier.
    post: List[Tuple[Choice, Optional[_Effects]]] = dataclasses.field(
        default_factory=list
    )


def _independent(
    a: Choice, a_eff: Optional[_Effects], b: Choice, b_eff: Optional[_Effects]
) -> bool:
    """True when delivering ``a`` and ``b`` in either order provably
    reaches the same state (the DPOR independence relation).

    Conservative: fault actions, manager-bound deliveries (view fan-out
    mutates listeners on other actors), and anything with an unrecorded
    footprint are dependent with everything.
    """
    if a.kind != "msg" or b.kind != "msg":
        return False
    if a_eff is None or b_eff is None:
        return False
    if a.dst == b.dst:
        return False
    if a.dst.endswith(":manager") or b.dst.endswith(":manager"):
        return False
    return not (a_eff[1] & b_eff[1])


class _Hook(DeliveryChooser):
    """Kernel-facing adapter; the runner owns all the state."""

    __slots__ = ("_runner",)

    def __init__(self, runner: "_ScheduleRunner") -> None:
        self._runner = runner

    def release(self, sim: Simulator) -> bool:
        return self._runner.release()


class _ScheduleRunner:
    """Drives one deployment through one (partially forced) schedule.

    Modes:
      * *explore*: follow ``forced`` (the DFS path prefix), then pick
        canonically among non-slept enabled choices, evolving the sleep
        set by independence; prune when everything enabled is slept.
      * *strict replay* (``strict=True``): every forced entry must be
        enabled when its turn comes, else :class:`ExploreError`.
      * *guided* (``guided`` set): best-effort — play each guidance
        entry that is enabled when reached, silently drop the rest
        (the delta-debugging probe mode).
    After the forced/guided input is exhausted (or the scripted ops
    complete), the run continues canonically with no sleep pruning.
    """

    def __init__(
        self,
        scope: ExploreScope,
        forced: Sequence[Choice] = (),
        branch_sleep: Sequence[Tuple[Choice, _Effects]] = (),
        dpor: bool = True,
        strict: bool = False,
        guided: Optional[Sequence[Choice]] = None,
    ) -> None:
        self.scope = scope
        self._forced = list(forced)
        self._branch_sleep = list(branch_sleep)
        self._dpor = dpor
        self._strict = strict
        self._guided = list(guided) if guided is not None else None
        self._guided_pos = 0

        self._queues: Dict[Tuple[str, str], Deque[Tuple[Address, Address, Message]]] = {}
        self._order: List[Tuple[str, str]] = []  # deterministic link listing
        self._frames: List[_Frame] = []
        self._trace: List[Choice] = []
        self._types: List[str] = []
        self._sleep: List[Tuple[Choice, _Effects]] = []
        self._open_choice: Optional[Choice] = None
        self._open_links: Set[Tuple[str, str]] = set()
        self._fired_actions: Set[int] = set()
        self._armed_actions: Set[int] = {
            i for i, act in enumerate(scope.actions) if act.after_put is None
        }
        self._recording = True
        self._settling = False
        self._post: List[Tuple[Choice, Optional[_Effects]]] = []
        self._futures: List[Future] = []
        self._failures: List[Tuple[str, str, str, str]] = []
        self._puts: Dict[str, List[VersionVector]] = {}
        self._store: Optional[ChainReactionStore] = None
        self._history = History()

    # -- network diversion ---------------------------------------------
    def divert(self, src: Address, dst: Address, msg: Message) -> bool:
        if msg.type_name in _UNDIVERTED:
            return False
        link = (str(src), str(dst))
        queue = self._queues.get(link)
        if queue is None:
            queue = self._queues[link] = deque()
            self._order.append(link)
            self._order.sort()
        queue.append((src, dst, msg))
        if self._open_choice is not None:
            self._open_links.add(link)
        return True

    # -- choice enumeration --------------------------------------------
    def _enabled(self) -> List[Choice]:
        msgs = [
            Choice(kind="msg", src=link[0], dst=link[1])
            for link in self._order
            if self._queues[link]
        ]
        if not msgs:
            return []
        acts = [
            Choice(kind="act", action=act.action, target=act.target)
            for i, act in enumerate(self.scope.actions)
            if i in self._armed_actions and i not in self._fired_actions
        ]
        return acts + msgs

    def _close_effects(self) -> None:
        if self._open_choice is None:
            return
        choice, links = self._open_choice, frozenset(self._open_links)
        self._open_choice, self._open_links = None, set()
        effects: _Effects = (choice.dst, links)
        if self._recording and self._frames and self._frames[-1].chosen == choice:
            self._frames[-1].effects = effects
        elif not self._recording:
            self._post.append((choice, effects))
        # evolve the sleep set: drop everything dependent on what just ran
        self._sleep = [
            (c, eff) for (c, eff) in self._sleep if _independent(c, eff, choice, effects)
        ]

    def _fire(self, choice: Choice) -> None:
        assert self._store is not None
        if choice.kind == "msg":
            queue = self._queues[(choice.src, choice.dst)]
            src, dst, msg = queue.popleft()
            if len(self._armed_actions) < len(self.scope.actions):
                if msg.type_name == "put-request":
                    key = getattr(msg, "key", None)
                    self._armed_actions.update(
                        i for i, act in enumerate(self.scope.actions)
                        if act.after_put == key
                    )
            self._open_choice = choice
            self._store.network.inject_now(src, dst, msg)
            return
        for i, act in enumerate(self.scope.actions):
            if act.target == choice.target and act.action == choice.action:
                if i in self._fired_actions:
                    continue
                self._fired_actions.add(i)
                node = self._store._node(act.site, act.server)
                manager = self._store.managers[act.site]
                if act.action == "crash":
                    node.crash()
                    manager._remove_server(act.server)
                elif act.action == "recover":
                    node.recover()
                    manager.add_server(act.server)
                else:
                    raise ExploreError(f"unknown fault action {act.action!r}")
                return
        raise ExploreError(f"fault action {choice.label()} not available")

    def release(self) -> bool:
        """One decision point (kernel callback; see module docstring)."""
        self._close_effects()
        if not self._settling and all(f.done() for f in self._futures):
            # client-visible quiescence: stop recording/branching, drain
            # the in-flight metadata canonically
            self._settling = True
            self._recording = False
        enabled = self._enabled()
        if not enabled:
            return False
        if self._settling:
            choice = next(c for c in enabled if c.kind == "msg")
            self._fire(choice)
            return True
        depth = len(self._trace)
        if depth >= _STEP_CAP:
            raise ExploreError(
                f"schedule exceeded {_STEP_CAP} decisions in scope "
                f"{self.scope.name!r}; livelock in the explored protocol?"
            )
        choice = self._pick(depth, enabled)
        sleep_now = list(self._sleep)
        if choice.kind == "msg":
            self._types.append(self._queues[(choice.src, choice.dst)][0][2].type_name)
        else:
            self._types.append("")
        self._trace.append(choice)
        self._frames.append(
            _Frame(enabled=tuple(enabled), chosen=choice, effects=None, sleep=sleep_now)
        )
        self._fire(choice)
        if choice.kind == "act":
            # fault placements are dependent with everything
            self._sleep = []
        elif depth == len(self._forced) - 1 and self._branch_sleep:
            # entering the DFS branch: seed the sleep set with the
            # already-explored siblings (filtered once effects close)
            self._sleep = list(self._branch_sleep)
        return True

    def _pick(self, depth: int, enabled: List[Choice]) -> Choice:
        if depth < len(self._forced):
            choice = self._forced[depth]
            if choice in enabled:
                return choice
            if self._strict:
                raise ExploreError(
                    f"replay diverged at step {depth}: {choice.label()} is not "
                    f"enabled (enabled: {[c.label() for c in enabled]})"
                )
            # non-strict forced prefix (shouldn't happen from the DFS)
            return enabled[0]
        if self._guided is not None:
            while self._guided_pos < len(self._guided):
                candidate = self._guided[self._guided_pos]
                self._guided_pos += 1
                if candidate in enabled:
                    return candidate
            return next(c for c in enabled if c.kind == "msg")
        if not self._dpor:
            return enabled[0]
        slept = {c for c, _ in self._sleep}
        for candidate in enabled:
            if candidate not in slept:
                return candidate
        raise _PruneRun()

    # -- the client scripts --------------------------------------------
    def _script(
        self, sim: Simulator, session: Any, ops: Sequence[ExploreOp]
    ) -> Generator[Any, Any, None]:
        for op in ops:
            if op.kind == "pause":
                yield op.delay
                continue
            invoked = sim.now
            try:
                if op.kind == "put":
                    result = yield session.put(op.key, op.value)
                    self._puts.setdefault(op.key, []).append(result.version)
                    self._history.add(
                        op.session, PUT, op.key, op.value, result.version,
                        invoked, sim.now, site=op.site,
                    )
                elif op.kind == "get":
                    result = yield session.get(op.key)
                    self._history.add(
                        op.session, GET, op.key, result.value, result.version,
                        invoked, sim.now, site=op.site,
                    )
                else:
                    raise ExploreError(f"unknown op kind {op.kind!r}")
            except ReproError as exc:
                self._failures.append((op.session, op.kind, op.key, str(exc)))

    # -- driving -------------------------------------------------------
    def run(self) -> _RunOutcome:
        with mutated(self.scope.mutations):
            return self._run()

    def _run(self) -> _RunOutcome:
        scope = self.scope
        store = build_store(
            "chainreaction",
            sites=scope.sites,
            servers_per_site=scope.servers_per_site,
            chain_length=scope.chain_length,
            ack_k=scope.ack_k,
            seed=42,
            overrides=scope.config_overrides(),
        )
        assert isinstance(store, ChainReactionStore)
        self._store = store
        sim = store.sim
        for site, server in scope.pre_crash:
            store._node(site, server).crash()
            store.managers[site]._remove_server(server)
        if scope.pre_crash:
            sim.run(until=sim.now + _PRESETTLE)
        monitor = ChainInvariantMonitor(store).attach()
        if scope.preload:
            store.preload({key: 0 for key in scope.preload})
        self._history = History()
        sessions: Dict[Tuple[str, str], Any] = {}
        scripted: Dict[Tuple[str, str], List[ExploreOp]] = {}
        for op in scope.ops:
            ident = (op.site, op.session)
            if ident not in sessions:
                sessions[ident] = store.session(op.site, op.session)
                scripted[ident] = []
            scripted[ident].append(op)
        store.network.set_divert(self.divert)
        sim.set_delivery_chooser(_Hook(self))
        for ident, ops in scripted.items():
            self._futures.append(
                spawn(sim, self._script(sim, sessions[ident], ops),
                      name=f"explore:{ident[1]}")
            )
        pruned = False
        deadline = sim.now + scope.horizon
        try:
            while sim.now < deadline and not all(f.done() for f in self._futures):
                bound = sim.now + _SLICE
                upcoming = sim.next_event_time()
                if upcoming is not None and upcoming >= bound:
                    bound = upcoming + 1e-9
                if sim.run_window(min(bound, deadline)) == 0 and upcoming is None:
                    break
            self._settling = True
            self._recording = False
            sim.run_window(sim.now + scope.settle)
            self._close_effects()
        except _PruneRun:
            pruned = True
        finally:
            sim.set_delivery_chooser(None)
            store.network.set_divert(None)
        if pruned:
            return _RunOutcome(
                frames=self._frames, trace=self._trace, types=self._types,
                pruned=True, violations=[], signature="", ops_done=False,
                post=self._post,
            )
        ops_done = all(f.done() for f in self._futures)
        violations = self._oracles(store, monitor, ops_done)
        return _RunOutcome(
            frames=self._frames, trace=self._trace, types=self._types,
            pruned=False, violations=violations,
            signature=violation_signature(violations), ops_done=ops_done,
            post=self._post,
        )

    # -- terminal oracles ----------------------------------------------
    def _oracles(
        self, store: ChainReactionStore, monitor: ChainInvariantMonitor, ops_done: bool
    ) -> List[Violation]:
        scope = self.scope
        out: List[Violation] = []
        if scope.check_progress:
            if not ops_done:
                out.append(Violation("progress", "", "", "scripted operations did not complete within the horizon"))
            for session, kind, key, detail in self._failures:
                out.append(Violation("progress", session, key, f"{kind} failed: {detail}"))
        try:
            self._history.validate()
        except CheckerError as exc:
            out.append(Violation("history", "", "", str(exc)))
        else:
            for cv in check_causal(self._history, validate=False):
                out.append(
                    Violation("causal:" + cv.guarantee, cv.session, cv.key, cv.detail)
                )
        for iv in monitor.report().violations:
            out.append(Violation("invariant:" + iv.kind, iv.node, iv.key, iv.detail))
        keys = sorted({op.key for op in scope.ops if op.key})
        if scope.check_convergence:
            for key in keys:
                if not store.converged(key):
                    out.append(Violation("convergence", "", key, "replicas disagree on (value, version)"))
        if scope.check_stability_convergence:
            out.extend(self._stability_convergence(store))
        return out

    def _stability_convergence(self, store: ChainReactionStore) -> List[Violation]:
        """Liveness at quiescence: the newest acknowledged write of every
        key must be DC-stable on its full chain, in every site. Only
        meaningful for crash-free scopes (repair can legitimately strand
        stability; scenarios with faults set the flag False)."""
        out: List[Violation] = []
        for key, versions in sorted(self._puts.items()):
            newest = versions[0]
            for version in versions[1:]:
                if version.dominates(newest):
                    newest = version
            for site, manager in sorted(store.managers.items()):
                for server in manager.view.chain_for(key):
                    node = store._node(site, server)
                    if not node.plane.record_is_stable(key, newest):
                        out.append(
                            Violation(
                                "stability-convergence",
                                f"{site}:{server}",
                                key,
                                f"version {newest} never became DC-stable",
                            )
                        )
        return out


# ----------------------------------------------------------------------
# DFS driver with sleep-set DPOR
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _PathNode:
    enabled: Tuple[Choice, ...]
    via: Choice
    tried: Dict[Choice, Optional[_Effects]]
    sleep: List[Tuple[Choice, _Effects]]
    #: conflict-driven backtrack set (Flanagan/Godefroid-style): the only
    #: siblings worth exploring here. Seeded empty; a later transition
    #: that is *dependent* with this node's choice adds itself (or, when
    #: it was not yet enabled here, everything enabled) on analysis.
    #: Naive mode seeds it with the full enabled set instead.
    backtrack: Set[Choice] = dataclasses.field(default_factory=set)

    def effects_of(self, choice: Choice) -> Optional[_Effects]:
        return self.tried.get(choice)


@dataclasses.dataclass
class Counterexample:
    """A violating schedule as found (pre-minimization)."""

    trace: Tuple[Choice, ...]
    types: Tuple[str, ...]
    violations: Tuple[Violation, ...]
    signature: str


@dataclasses.dataclass
class ExploreReport:
    """Outcome of exploring one scope."""

    scope: ExploreScope
    mode: str
    schedules: int
    pruned: int
    decisions: int
    max_depth: int
    complete: bool
    counterexample: Optional[Counterexample]
    elapsed: float
    naive_schedules: Optional[int] = None
    naive_complete: Optional[bool] = None

    @property
    def clean(self) -> bool:
        return self.counterexample is None

    @property
    def pruning_ratio(self) -> Optional[float]:
        if not self.naive_schedules or not self.schedules:
            return None
        return self.naive_schedules / float(self.schedules)

    @property
    def schedules_per_s(self) -> float:
        """Schedules per wall-second: a host measurement, never compared."""
        return self.schedules / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"explore {self.scope.name}: mode={self.mode} "
            f"schedules={self.schedules} pruned-prefixes={self.pruned} "
            f"decisions={self.decisions} max-depth={self.max_depth} "
            f"complete={'yes' if self.complete else 'no (budget)'} "
            f"elapsed={self.elapsed:.1f}s rate={self.schedules_per_s:.1f}/s"
        ]
        if self.naive_schedules is not None:
            ratio = self.pruning_ratio
            bound = "" if self.naive_complete else ">="
            lines.append(
                f"  naive enumeration: {bound}{self.naive_schedules} schedules"
                + (f" -> DPOR pruning ratio {bound}{ratio:.1f}x" if ratio else "")
            )
        if self.counterexample is None:
            lines.append("  no violation found")
        else:
            lines.append(
                f"  VIOLATION after {self.schedules} schedules "
                f"({len(self.counterexample.trace)} decisions):"
            )
            for violation in self.counterexample.violations:
                lines.append(f"    {violation}")
        return "\n".join(lines)


def explore_scope(
    scope: ExploreScope,
    budget: int = 20000,
    mode: str = "dpor",
    stop_on_violation: bool = True,
    expect_clean_signature: Optional[str] = None,
) -> ExploreReport:
    """Enumerate the scope's schedule space depth-first.

    ``budget`` caps the number of executed schedules (terminal states
    plus pruned prefixes); ``complete`` in the report says whether the
    space was exhausted before the cap. ``mode`` is ``"dpor"`` (sleep-set
    reduction) or ``"naive"``. With ``expect_clean_signature`` set, only
    an outcome whose signature differs counts as a violation (used by
    minimization; normally any non-empty violation list does).
    """
    if mode not in ("dpor", "naive"):
        raise ExploreError(f"unknown explore mode {mode!r}")
    dpor = mode == "dpor"
    # tool-level reporting: how long the *exploration* took on the host,
    # not anything the simulated protocol can observe
    started = time.monotonic()  # repro: lint-ok(no-wall-clock)
    path: List[_PathNode] = []
    forced: List[Choice] = []
    branch_sleep: List[Tuple[Choice, _Effects]] = []
    schedules = pruned = decisions = max_depth = 0
    counterexample: Optional[Counterexample] = None
    complete = True
    while True:
        runner = _ScheduleRunner(
            scope, forced=forced, branch_sleep=branch_sleep, dpor=dpor
        )
        outcome = runner.run()
        decisions += max(0, len(outcome.trace) - len(forced))
        max_depth = max(max_depth, len(outcome.trace))
        if outcome.pruned:
            pruned += 1
        else:
            schedules += 1
            violating = bool(outcome.violations)
            if expect_clean_signature is not None:
                violating = outcome.signature != expect_clean_signature
            if violating and counterexample is None:
                counterexample = Counterexample(
                    trace=tuple(outcome.trace),
                    types=tuple(outcome.types),
                    violations=tuple(outcome.violations),
                    signature=outcome.signature,
                )
                if stop_on_violation:
                    break
        # merge this run's frames into the persistent DFS path
        frames = outcome.frames
        if forced:
            node = path[len(forced) - 1]
            node.via = forced[-1]
            effects = (
                frames[len(forced) - 1].effects if len(frames) >= len(forced) else None
            )
            node.tried[forced[-1]] = effects
        for frame in frames[len(forced):]:
            path.append(
                _PathNode(
                    enabled=frame.enabled,
                    via=frame.chosen,
                    tried={frame.chosen: frame.effects},
                    sleep=frame.sleep,
                    backtrack=set() if dpor else set(frame.enabled),
                )
            )
        if dpor:
            # conflict analysis: each transition from this run adds a
            # backtrack point at the *latest* earlier node whose choice
            # it is dependent with — reordering independent transitions
            # provably reaches the same state, so no sibling is proposed
            # there at all. (Sleep sets still deduplicate the remainder.)
            # Only pairs involving this run's new suffix are new; the
            # branch node itself (len(forced) - 1) changed its via.
            for j in range(max(0, len(forced) - 1), len(path)):
                node_j = path[j]
                eff_j = node_j.effects_of(node_j.via)
                for i in range(j - 1, -1, -1):
                    node_i = path[i]
                    if _independent(
                        node_i.via, node_i.effects_of(node_i.via), node_j.via, eff_j
                    ):
                        continue
                    # every earlier dependent node gets the candidate,
                    # not just the latest: chains of conflicts (j depends
                    # on i2 depends on i1) need the reordering before i1
                    # too, and the cheap scan has no happens-before
                    # tracking to prove it redundant
                    if node_j.via in node_i.enabled:
                        node_i.backtrack.add(node_j.via)
                    else:
                        node_i.backtrack.update(node_i.enabled)
            # deliveries the canonical drain made after client-visible
            # quiescence still conflict with recorded transitions; their
            # edges are what lets the DFS pull a deferred message ahead
            # of the read/write it would have raced
            for choice_j, eff_j in outcome.post:
                for i in range(len(path) - 1, -1, -1):
                    node_i = path[i]
                    if _independent(
                        node_i.via, node_i.effects_of(node_i.via), choice_j, eff_j
                    ):
                        continue
                    if choice_j in node_i.enabled:
                        node_i.backtrack.add(choice_j)
                    else:
                        node_i.backtrack.update(node_i.enabled)
        if schedules + pruned >= budget:
            complete = False
            break
        # backtrack to the deepest state with an unexplored, unslept
        # choice from its backtrack set (enabled-order for determinism)
        target: Optional[Choice] = None
        while path:
            node = path[-1]
            slept = {c for c, _ in node.sleep}
            for candidate in node.enabled:
                if (
                    candidate in node.backtrack
                    and candidate not in node.tried
                    and candidate not in slept
                ):
                    target = candidate
                    break
            if target is not None:
                break
            path.pop()
        if target is None:
            break
        branch_sleep = list(path[-1].sleep) + [
            (c, eff) for c, eff in path[-1].tried.items() if eff is not None
        ]
        forced = [n.via for n in path[:-1]] + [target]
    return ExploreReport(
        scope=scope,
        mode=mode,
        schedules=schedules,
        pruned=pruned,
        decisions=decisions,
        max_depth=max_depth,
        complete=complete,
        counterexample=counterexample,
        elapsed=time.monotonic() - started,  # repro: lint-ok(no-wall-clock)
    )


# ----------------------------------------------------------------------
# replay + minimization
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ReplayResult:
    """Outcome of re-running a saved schedule."""

    violations: Tuple[Violation, ...]
    signature: str
    reproduced: bool
    trace: Tuple[Choice, ...]
    types: Tuple[str, ...]


def replay_schedule(
    schedule: Schedule, strict: bool = True, on_clean_tree: bool = False
) -> ReplayResult:
    """Re-run a schedule and compare oracle outcomes.

    ``strict`` demands every recorded choice be enabled in recorded
    order (bit-for-bit reproduction on the same tree). With
    ``on_clean_tree`` the scope's mutations are stripped first — the
    clean tree takes different message paths, so replay drops to guided
    (best-effort) mode and ``reproduced`` reports whether the *original*
    violation signature recurred (it must not, once the bug is fixed).
    """
    scope = schedule.scope.without_mutations() if on_clean_tree else schedule.scope
    if on_clean_tree:
        strict = False
    runner = _ScheduleRunner(
        scope,
        forced=schedule.trace if strict else (),
        dpor=False,
        strict=strict,
        guided=None if strict else schedule.trace,
    )
    outcome = runner.run()
    return ReplayResult(
        violations=tuple(outcome.violations),
        signature=outcome.signature,
        reproduced=outcome.signature == schedule.signature,
        trace=tuple(outcome.trace),
        types=tuple(outcome.types),
    )


def _probe(
    scope: ExploreScope,
    forced: Sequence[Choice],
    signature: str,
    guided: bool = False,
) -> Optional[_RunOutcome]:
    """Run one minimization probe; the outcome if it reproduces the
    violation signature, else None."""
    runner = _ScheduleRunner(
        scope,
        forced=() if guided else forced,
        dpor=False,
        strict=not guided,
        guided=forced if guided else None,
    )
    try:
        outcome = runner.run()
    except ExploreError:
        return None
    if outcome.pruned or outcome.signature != signature:
        return None
    return outcome


def minimize_counterexample(
    scope: ExploreScope,
    counterexample: Counterexample,
    max_probes: int = 400,
) -> Schedule:
    """Shrink a violating trace to a minimal replayable schedule.

    Two phases: binary-search the shortest violating prefix (canonical
    completion supplies the tail), then classic ddmin over the remaining
    entries with guided (skip-if-disabled) replay. The winner is
    re-recorded under strict replay so the saved schedule is exactly the
    trace a verifier will see.
    """
    signature = counterexample.signature
    trace = list(counterexample.trace)
    probes = 0

    # Phase 1: shortest violating prefix.
    low, high = 0, len(trace)
    if _probe(scope, trace[:0], signature) is not None:
        high = 0
    while low < high and probes < max_probes:
        mid = (low + high) // 2
        probes += 1
        if _probe(scope, trace[:mid], signature) is not None:
            high = mid
        else:
            low = mid + 1
    best = trace[:high]

    # Phase 2: ddmin (guided) over the prefix entries.
    chunk = max(1, len(best) // 2)
    while chunk >= 1 and probes < max_probes:
        reduced = False
        start = 0
        while start < len(best) and probes < max_probes:
            candidate = best[:start] + best[start + chunk:]
            probes += 1
            if _probe(scope, candidate, signature, guided=True) is not None:
                best = candidate
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)

    # Re-record under guided replay, then pin bit-for-bit under strict.
    final = _probe(scope, best, signature, guided=True)
    if final is None:
        final = _probe(scope, trace, signature)
    if final is None:
        raise ExploreError(
            "counterexample stopped reproducing during minimization "
            f"(scope {scope.name!r})"
        )
    strict_check = _probe(scope, final.trace, signature)
    if strict_check is None:
        raise ExploreError(
            "minimized schedule does not replay bit-for-bit "
            f"(scope {scope.name!r})"
        )
    return Schedule(
        scope=scope,
        trace=tuple(strict_check.trace),
        types=tuple(strict_check.types),
        signature=signature,
        violations=tuple(strict_check.violations),
    )


def save_counterexample(path: str, report: ExploreReport, minimize: bool = True) -> Schedule:
    """Minimize (optionally) and persist a report's counterexample."""
    if report.counterexample is None:
        raise ExploreError("report has no counterexample to save")
    if minimize:
        schedule = minimize_counterexample(report.scope, report.counterexample)
    else:
        schedule = Schedule(
            scope=report.scope,
            trace=report.counterexample.trace,
            types=report.counterexample.types,
            signature=report.counterexample.signature,
            violations=report.counterexample.violations,
        )
    save_schedule(path, schedule)
    return schedule


# ----------------------------------------------------------------------
# scenarios (the proving ground)
# ----------------------------------------------------------------------
def _chain_map(
    servers: Sequence[str], chain_length: int, count: int = 64
) -> Dict[str, Tuple[str, ...]]:
    """key -> chain over the candidate key universe ``k00..``, computed
    statically from the same ring the deployment will build."""
    view = RingView(
        epoch=1, site="dc0", servers=tuple(servers),
        chain_length=chain_length, virtual_nodes=_VNODES,
    )
    return {f"k{i:02d}": tuple(view.chain_for(f"k{i:02d}")) for i in range(count)}


def _pick(
    chains: Dict[str, Tuple[str, ...]],
    predicate: Callable[[str, Tuple[str, ...]], bool],
) -> str:
    for key in sorted(chains):
        if predicate(key, chains[key]):
            return key
    raise ExploreError("no candidate key satisfies the scenario's chain shape")


def _smallest_scope() -> ExploreScope:
    """The CI scope: 2 DCs x 2-node chains x 6 ops, clean tree.

    Exhaustively enumerable under DPOR within the explore-smoke budget;
    the naive comparison run establishes the pruning ratio. A's pause
    phases the workload: the first put's geo-replication races B's
    remote reads exhaustively, then the dependent second put and the
    session-guarantee reads run against the settled prefix — without
    the phase boundary the one-instant product space is ~2 orders of
    magnitude larger and no longer enumerable in CI time.
    """
    chains = _chain_map(["s0", "s1"], 2)
    key_x = _pick(chains, lambda k, c: c[0] == "s0")
    key_y = _pick(chains, lambda k, c: c[0] == "s1")
    return ExploreScope(
        name="smallest",
        sites=("dc0", "dc1"),
        servers_per_site=2,
        chain_length=2,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "pause", "", None, 0.01),
            ExploreOp("A", "dc0", "put", key_y, 2),
            ExploreOp("A", "dc0", "get", key_x),
            ExploreOp("B", "dc1", "get", key_y),
            ExploreOp("B", "dc1", "get", key_x),
            ExploreOp("B", "dc1", "get", key_y),
        ),
    )


def _split_brain_scope() -> ExploreScope:
    """PR 3's bug, re-injected. Crash the head of K before the run; a
    dependency wait then parks a put for K at the stand-in head; recover
    the old head mid-wait. On the clean tree the stand-in notices at
    apply time that the view moved on, rejects, and the client retries
    at the recovered head. The mutated tree skips that re-check: the
    deposed stand-in mints a version under the stale epoch and serves it
    downstream only — the recovered head never sees the write (replica
    divergence), and a concurrent client minting at the true head can
    produce the same (key, version) twice (duplicate-mint history).

    chain_length 3 with ack_k 2 puts the stand-in at the *ack* position
    of the new chain, so the stale-epoch write is client-acknowledged —
    dependency acks stay mid-chain (unstable), which keeps the
    dependency wait that opens the race window. The recover action is
    gated on the contested put's delivery (``after_put``): un-gated, the
    canonical path recovers the old head before the put is even issued,
    and the race sits a long chain of deviations away from canonical."""
    servers = ["s0", "s1", "s2", "s3"]
    chains = _chain_map(servers, 3)
    key_k = sorted(chains)[0]
    victim = chains[key_k][0]
    key_y = _pick(chains, lambda k, c: k != key_k and c != chains[key_k])
    return ExploreScope(
        name="split_brain_mint",
        sites=("dc0",),
        servers_per_site=4,
        chain_length=3,
        ack_k=2,
        ops=(
            ExploreOp("A", "dc0", "put", key_y, 10),
            ExploreOp("A", "dc0", "put", key_k, 11),
        ),
        pre_crash=(("dc0", victim),),
        actions=(FaultAction("recover", "dc0", victim, after_put=key_k),),
        # recovery can legitimately strand a dependency's stability (the
        # data survived but no transfer re-stabilises it); keep the
        # proceed-anyway escape hatch *shorter* than the client attempt
        # so those schedules still make progress instead of burning the
        # retry budget on replies that arrive after the client gave up
        overrides=(("dep_wait_timeout", 0.15), ("op_timeout", 1.0)),
        mutations=("split_brain_mint",),
        # membership changes mid-run legitimately strand *stability*;
        # value convergence must still hold at quiescence and is exactly
        # what the stale-epoch write breaks
        check_stability_convergence=False,
    )


def _drop_cascade_scope() -> ExploreScope:
    """chain_length 3: the mid-chain node must forward ChainStable
    upstream; the mutation drops that hop, so the head never learns the
    write is DC-stable — caught by the stability-convergence oracle."""
    return ExploreScope(
        name="drop_stable_cascade",
        sites=("dc0",),
        servers_per_site=3,
        chain_length=3,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", "k00", 1),
            ExploreOp("B", "dc0", "get", "k00"),
            ExploreOp("B", "dc0", "get", "k00"),
        ),
        mutations=("drop_stable_cascade",),
    )


def _gc_floor_scope() -> ExploreScope:
    """Seal a key when it settles, then write it again: the mutated
    stable floor over-promises by one version, so a dependent write's
    stability wait resolves instantly and readers see the dependent
    write before its dependency."""
    servers = ["s0", "s1", "s2"]
    chains = _chain_map(servers, 2)
    key_x = sorted(chains)[0]
    key_y = _pick(chains, lambda k, c: c != chains[key_x])
    return ExploreScope(
        name="gc_floor_off_by_one",
        sites=("dc0",),
        servers_per_site=3,
        chain_length=2,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "pause", delay=0.2),
            ExploreOp("A", "dc0", "put", key_x, 2),
            ExploreOp("A", "dc0", "put", key_y, 3),
            ExploreOp("B", "dc0", "pause", delay=0.2),
            ExploreOp("B", "dc0", "get", key_y),
            ExploreOp("B", "dc0", "get", key_x),
        ),
        overrides=(("stability", "notices+batch"),),
        mutations=("gc_floor_off_by_one",),
        # the second write of key_x is deliberately left propagating in
        # the violating schedules; liveness oracles would double-report
        check_stability_convergence=False,
        check_convergence=False,
    )


def _ack_implies_stable_scope() -> ExploreScope:
    """Two keys sharing a head with different tails: the mutated head
    marks a write stable at ack time, so a dependent write on the other
    chain skips its wait and becomes visible first."""
    servers = ["s0", "s1", "s2"]
    chains = _chain_map(servers, 2)
    key_x = sorted(chains)[0]
    head = chains[key_x][0]
    key_y = _pick(
        chains,
        lambda k, c: c[0] == head and c[-1] != chains[key_x][-1],
    )
    return ExploreScope(
        name="ack_implies_stable",
        sites=("dc0",),
        servers_per_site=3,
        chain_length=2,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "put", key_y, 2),
            ExploreOp("B", "dc0", "get", key_y),
            ExploreOp("B", "dc0", "get", key_x),
        ),
        mutations=("ack_implies_stable",),
        check_stability_convergence=False,
        check_convergence=False,
    )


def _skip_dep_wait_scope() -> ExploreScope:
    """Two keys on different chains: the mutated head admits a
    dependent write without waiting for its dependency's stability."""
    servers = ["s0", "s1", "s2"]
    chains = _chain_map(servers, 2)
    key_x = sorted(chains)[0]
    key_y = _pick(chains, lambda k, c: c != chains[key_x])
    return ExploreScope(
        name="skip_dep_wait",
        sites=("dc0",),
        servers_per_site=3,
        chain_length=2,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "put", key_y, 2),
            ExploreOp("B", "dc0", "get", key_y),
            ExploreOp("B", "dc0", "get", key_x),
        ),
        mutations=("skip_dep_wait",),
        check_stability_convergence=False,
        check_convergence=False,
    )


def _batch_reorder_scope() -> ExploreScope:
    """Protocol batching on, chain length 1: three causally-chained
    writes coalesce into one RemoteUpdateBatch; the mutation reverses
    the batch, and same-key gating lets the newest write inject before
    the write it transitively depends on is visible remotely."""
    return ExploreScope(
        name="batch_reorder",
        sites=("dc0", "dc1"),
        servers_per_site=1,
        chain_length=1,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", "k00", 1),
            ExploreOp("A", "dc0", "put", "k01", 2),
            ExploreOp("A", "dc0", "put", "k01", 3),
            ExploreOp("B", "dc1", "pause", delay=0.002),
            ExploreOp("B", "dc1", "get", "k01"),
            ExploreOp("B", "dc1", "get", "k00"),
        ),
        overrides=(("stability", "notices+batch"), ("batch_flush_interval", 0.002)),
        mutations=("batch_reorder",),
        check_stability_convergence=False,
        check_convergence=False,
    )


def _stale_vector_scope() -> ExploreScope:
    """Clock plane: the mutated injection gate trusts the origin's ship
    vector (``dep_ts <= dc_ship[origin]``) instead of the local visible
    horizon. Two causally-chained writes on disjoint dc1 chains arrive
    in one ``ClockShip``, whose ``lst`` already covers both stamps — so
    the mutated gate admits the dependent write while its dependency's
    injection is still queued for a *different* chain head. The reader's
    pause is two vector intervals, landing on the very tick instant the
    ship fires (interval accumulation is exact float doubling), so both
    reads join the same drain phase as the racing injections: the
    explorer can apply the dependent write, serve both reads, and only
    then deliver the dependency — a causal-cut violation. The clean
    gate caps ``visible`` at ``just_below(oldest pending)``, holding the
    dependent write until its dependency tail-applies, whatever the
    schedule."""
    interval = 0.002
    chains = _chain_map(["s0", "s1"], 1)
    key_x = sorted(chains)[0]
    x_chain = set(chains[key_x])
    key_y = _pick(chains, lambda k, c: not x_chain.intersection(c))
    return ExploreScope(
        name="stale_stability_vector",
        sites=("dc0", "dc1"),
        servers_per_site=2,
        chain_length=1,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "put", key_y, 2),
            ExploreOp("B", "dc1", "pause", "", None, 2 * interval),
            ExploreOp("B", "dc1", "get", key_y),
            ExploreOp("B", "dc1", "get", key_x),
        ),
        overrides=(("stability", "clock"), ("stability_interval", interval)),
        mutations=("stale_stability_vector",),
        check_stability_convergence=False,
        check_convergence=False,
    )


def _converged_floor_scope() -> ExploreScope:
    """Two preloaded keys on disjoint one-node chains, two DCs: A
    overwrites X, reads it back, writes Y. The shadow pair masks the
    mutation on the DC side; the *global* floor has nothing in front of
    it, so the read-back answers ``globally=True`` while X has not left
    dc0, A drops the dependency and Y ships without it. In dc1 the two
    injections go to different heads: apply Y, serve B both reads, then
    deliver X. The clean overwrite unseals X, the read-back says
    ``globally=False`` until dc1 acknowledged X, and Y waits for it."""
    chains = _chain_map(["s0", "s1"], 1)
    key_x = sorted(chains)[0]
    key_y = _pick(chains, lambda k, c: c != chains[key_x])
    return ExploreScope(
        name="converged_floor_overreach",
        sites=("dc0", "dc1"),
        servers_per_site=2,
        chain_length=1,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "get", key_x),
            ExploreOp("A", "dc0", "put", key_y, 2),
            ExploreOp("B", "dc1", "get", key_y),
            ExploreOp("B", "dc1", "get", key_x),
        ),
        preload=(key_x, key_y),
        mutations=("converged_floor_overreach",),
    )


def _proxy_gate_scope() -> ExploreScope:
    """Two DCs, 2-node chains: A writes X, then Y, which names X; a dc1
    session reads Y, then X. The mutated dc1 proxy lets Y in as soon as
    it arrives, so the reader can see Y and then miss X, still on its way
    down X's chain. The clean proxy holds Y until X's tail in dc1
    announces X DC-stable. The scope runs ``notices+batch``: the reader's
    second pair lands on the instant the flush window closes, racing the
    batch. Its first pair races ``notices`` shipping at t = 0
    (``explore --stability notices``); the reader is named to sort after
    the servers, so the canonical schedule serves its reads last and the
    explorer reaches that race within a few dozen schedules."""
    flush = 0.002
    chains = _chain_map(["s0", "s1"], 2)
    key_x = _pick(chains, lambda k, c: c[0] == "s1")
    key_y = _pick(chains, lambda k, c: c[0] == "s0")
    return ExploreScope(
        name="proxy_gate_open",
        sites=("dc0", "dc1"),
        servers_per_site=2,
        chain_length=2,
        ack_k=1,
        ops=(
            ExploreOp("A", "dc0", "put", key_x, 1),
            ExploreOp("A", "dc0", "put", key_y, 2),
            ExploreOp("viewer", "dc1", "get", key_y),
            ExploreOp("viewer", "dc1", "get", key_x),
            ExploreOp("viewer", "dc1", "pause", delay=flush),
            ExploreOp("viewer", "dc1", "get", key_y),
            ExploreOp("viewer", "dc1", "get", key_x),
        ),
        overrides=(("stability", "notices+batch"), ("batch_flush_interval", flush)),
        mutations=("proxy_gate_open",),
        check_stability_convergence=False,
        check_convergence=False,
    )


#: scenario name -> factory. The mutation scenarios carry their mutation
#: in ``scope.mutations``; ``scope.without_mutations()`` is the clean
#: twin the unmutated tree must pass.
SCENARIOS: Dict[str, Callable[[], ExploreScope]] = {
    "smallest": _smallest_scope,
    "split_brain_mint": _split_brain_scope,
    "drop_stable_cascade": _drop_cascade_scope,
    "gc_floor_off_by_one": _gc_floor_scope,
    "ack_implies_stable": _ack_implies_stable_scope,
    "skip_dep_wait": _skip_dep_wait_scope,
    "batch_reorder": _batch_reorder_scope,
    "stale_stability_vector": _stale_vector_scope,
    "converged_floor_overreach": _converged_floor_scope,
    "proxy_gate_open": _proxy_gate_scope,
}

# every seeded mutation must have a proving-ground scenario
assert set(MUTATIONS) <= set(SCENARIOS)


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def scenario(name: str) -> ExploreScope:
    factory = SCENARIOS.get(name)
    if factory is None:
        raise ExploreError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        )
    return factory()
