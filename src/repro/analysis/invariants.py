"""Opt-in runtime checks of the chain-replication invariants.

ChainReaction inherits three structural properties from chain
replication, and the causal+ contract adds a fourth; this module turns
them into assertions that can ride along on any run of the
``chainreaction`` / ``chain`` deployments:

- **chain prefix property** — writes flow head → tail over FIFO links,
  so at any instant each replica's applied version sequence for a key
  is a prefix of the head's sequence. A non-prefix apply means a write
  bypassed chain order.
- **DC-stability monotonicity** — the stable version a server tracks
  per key only ever grows (vector merge); observing it shrink would
  un-stabilize data that clients already depend on.
- **tail grounding** — a server may only mark DC-stable a version its
  own store already dominates: stability is the claim "every chain
  position holds this", which the claimant must at least satisfy itself.
- **causal-cut satisfaction** — every ``get`` served to a session must
  return a version dominating the session's recorded dependency for
  that key; anything less would hand the application a state outside
  its causal past.

The monitor wraps per-node ``store.apply`` / ``store.install``, the
``stability.record`` / ``mark_converged`` / ``seal`` of a node's plane
if it keeps trackers (the clock plane does not), and per-session
observation hooks on a live deployment. A record installed converged,
like a sealed key, has no tracker entry (``NoticesPlane.mark_converged``,
``BatchedNoticesPlane.seal``), so both stability checks cover that floor too:
marking is grounded only if every key the node was just handed is held
at exactly the vouched version, sealing only if the store holds exactly
the sealed one, and an answer that has *sunk* by the key's next notice
— on the way from the floor to a live entry — breaks monotonicity
though no single ``record`` shrank anything.

Runs with failure injection are supported (the fault-campaign engine
attaches this monitor on every campaign). Three adjustments keep the
checks sound across crashes and reconfigurations without weakening
them on fault-free runs:

- applies performed while a node is **syncing** (chain repair after a
  view change) are re-installs of already-checked writes and are not
  recorded as new sequence entries;
- a **fail-stop crash** discards the replica's recorded lifetime — the
  recovered process is logically new, so its sequence restarts;
- once a site has seen a **view change**, "each replica is a prefix of
  the head" is no longer well-defined (the head itself changes), so the
  prefix scan switches to the reconfiguration-stable core of the
  property: every pair of replicas must agree on the relative order of
  the writes both applied (``chain-order``). Fault-free runs keep the
  strict prefix check.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from repro.core.messages import ReadReply
from repro.storage.store import installed

__all__ = ["ChainInvariantMonitor", "InvariantReport", "InvariantViolation"]


@dataclasses.dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach, with enough context to locate it."""

    kind: str
    node: str
    key: str
    detail: str

    def format(self) -> str:
        return f"[{self.kind}] node={self.node} key={self.key}: {self.detail}"


@dataclasses.dataclass
class InvariantReport:
    """Checks run + violations found over one monitored run."""

    violations: List[InvariantViolation]
    applies_checked: int
    stability_checks: int
    gets_checked: int
    keys_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations

    def format(self) -> str:
        header = (
            f"invariants: {self.applies_checked} applies, "
            f"{self.stability_checks} stability notices, "
            f"{self.gets_checked} gets, {self.keys_checked} keys checked"
        )
        if not self.violations:
            return header + " — all hold"
        lines = [header + f" — {len(self.violations)} VIOLATION(S):"]
        lines.extend("  " + v.format() for v in self.violations)
        return "\n".join(lines)


class ChainInvariantMonitor:
    """Attachable invariant checker for a chain-based deployment.

    Usage::

        store = build_store("chainreaction", ...)
        monitor = ChainInvariantMonitor(store).attach()
        ... run a workload ...
        report = monitor.report()
        assert report.clean, report.format()

    Attach *before* preload so the preload writes are part of every
    replica's recorded sequence.
    """

    def __init__(self, store: Any) -> None:
        self.store = store
        self.violations: List[InvariantViolation] = []
        #: (site, node) -> key -> ordered list of applied record versions
        self._applied: Dict[Tuple[str, str], Dict[str, List[Any]]] = {}
        #: site -> number of view changes observed during the run
        self._view_changes: Dict[str, int] = {}
        self.applies_checked = 0
        self.stability_checks = 0
        self.gets_checked = 0
        self._attached = False

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self) -> "ChainInvariantMonitor":
        if self._attached:
            raise RuntimeError("monitor is already attached")
        self._attached = True
        for site, nodes in self.store.nodes.items():
            for node in nodes:
                self._wrap_node(site, node)
        for site, manager in self.store.managers.items():
            self._view_changes[site] = 0
            self._watch_views(site, manager)
        self._wrap_session_factory()
        return self

    def _watch_views(self, site: str, manager: Any) -> None:
        monitor = self

        def count_view_change(view: Any) -> None:
            monitor._view_changes[site] += 1

        manager.add_view_listener(count_view_change)

    def _wrap_node(self, site: str, node: Any) -> None:
        node_key = (site, node.name)
        self._applied[node_key] = {}
        applied = self._applied[node_key]
        monitor = self

        original_apply = node.store.apply

        def recording_apply(key: str, value: Any, version: Any, now: float = 0.0,
                            stamp: Any = None) -> Any:
            result = original_apply(key, value, version, now, stamp)
            monitor.applies_checked += 1
            if result.applied and not getattr(node, "syncing", False):
                applied.setdefault(key, []).append(result.record.version)
            return result

        node.store.apply = recording_apply

        original_install = node.store.install

        #: keys the last ``install`` stored as given (grounds the marking)
        handed: List[str] = []

        def recording_install(base: Any, holds: Any) -> Any:
            # Keys the store already held go through ``store.apply``,
            # i.e. ``recording_apply``; the rest are stored as given.
            arbitrated = original_install(base, holds)
            handed[:] = installed(base, holds, arbitrated)
            monitor.applies_checked += len(handed)
            if not getattr(node, "syncing", False):
                for key in handed:
                    applied.setdefault(key, []).append(base.version)
            return arbitrated

        node.store.install = recording_install

        original_crash = node.crash

        #: key -> what the floor answered at marking or sealing, until
        #: the key's next notice
        vouched: Dict[str, Any] = {}

        def resetting_crash() -> None:
            # Fail-stop: the replica's recorded lifetime ends here. What
            # it re-applies after recovery belongs to a fresh sequence.
            applied.clear()
            vouched.clear()
            original_crash()

        node.crash = resetting_crash

        plane = getattr(node, "plane", None)
        tracker = getattr(plane, "stability", None)
        if tracker is None:
            return  # no stability tracker to check: prefix recording only

        original_record = tracker.record
        node_name = f"{site}:{node.name}"

        def violated(kind: str, key: str, detail: str) -> None:
            monitor.violations.append(
                InvariantViolation(kind=kind, node=node_name, key=key, detail=detail)
            )

        def check_monotone(key: str, before: Any, after: Any) -> None:
            if not after.dominates(before):
                violated("stability-monotonicity", key,
                         f"stable version moved from {before} to {after}")

        def checking_record(key: str, version: Any) -> None:
            before = tracker.stable_version(key)
            floor = vouched.pop(key, None)
            if floor is not None:
                # By now the answer may come from an entry created off
                # the floor; it must not have sunk on the way.
                check_monotone(key, floor, before)
            original_record(key, version)
            after = tracker.stable_version(key)
            monitor.stability_checks += 1
            check_monotone(key, before, after)
            held = node.store.version_of(key)
            if not held.dominates(after):
                violated("stability-grounding", key,
                         f"declared {after} stable while holding only {held}; "
                         "a server may not stabilise versions it does not store")

        tracker.record = checking_record

        original_mark = plane.mark_converged

        def checking_mark_converged(version: Any, arbitrated: Any, placed: Any) -> None:
            original_mark(version, arbitrated, placed)
            for key in handed:
                held = node.store.version_of(key)
                if held != version:
                    violated("stability-grounding", key,
                             f"marked {version} converged while holding {held}; "
                             "only a record installed as given answers for itself")
                vouched[key] = tracker.stable_version(key)

        plane.mark_converged = checking_mark_converged

        original_seal = getattr(plane, "seal", None)
        if original_seal is None:
            return  # a plane that never seals

        def checking_seal(key: str, version: Any) -> None:
            original_seal(key, version)
            held = node.store.version_of(key)
            if held != version:
                violated("stability-grounding", key,
                         f"sealed {version} while holding {held}; "
                         "only the stored record answers for itself")
            vouched[key] = tracker.stable_version(key)

        plane.seal = checking_seal

    def _wrap_session_factory(self) -> None:
        original_session = self.store.session
        monitor = self

        def monitored_session(*args: Any, **kwargs: Any) -> Any:
            session = original_session(*args, **kwargs)
            monitor._wrap_session(session)
            return session

        self.store.session = monitored_session

    def _wrap_session(self, session: Any) -> None:
        # Only the ChainReaction client keeps a dependency table; the
        # plain chain-replication client has no causal metadata to check.
        if not hasattr(session, "_note_observed") or not hasattr(session, "_deps"):
            return
        original_note = session._note_observed
        monitor = self
        session_name = session.session_id

        def checking_note(key: str, reply: ReadReply) -> None:
            entry = session._deps.get(key)
            monitor.gets_checked += 1
            if entry is not None and not reply.version.dominates(entry.version):
                monitor.violations.append(
                    InvariantViolation(
                        kind="causal-cut",
                        node=session_name,
                        key=key,
                        detail=(
                            f"get served {reply.version} but the session "
                            f"already observed {entry.version}"
                        ),
                    )
                )
            original_note(key, reply)

        session._note_observed = checking_note

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def check_prefix_property(self) -> List[InvariantViolation]:
        """End-of-run scan of the chain ordering property.

        Runs over the final recorded sequences; call after the
        simulation has drained so in-flight chain hops are not reported
        as (transient, legitimate) gaps.

        Fault-free sites get the full-strength check: every replica's
        applied sequence is a strict prefix of the head's. Sites that
        reconfigured during the run (crashes, view changes) no longer
        have a single well-defined head over the whole run, so the scan
        checks what chain order still guarantees across
        reconfigurations: every pair of replicas agrees on the relative
        order of the writes both of them applied (``chain-order``).
        """
        found: List[InvariantViolation] = []
        for site, manager in self.store.managers.items():
            view = manager.view
            keys = set()
            for node in self.store.nodes[site]:
                keys.update(self._applied[(site, node.name)].keys())
            if self._view_changes.get(site, 0) == 0:
                found.extend(self._check_strict_prefix(site, view, sorted(keys)))
            else:
                found.extend(self._check_order_consistency(site, sorted(keys)))
        return found

    def _check_strict_prefix(
        self, site: str, view: Any, keys: List[str]
    ) -> List[InvariantViolation]:
        found: List[InvariantViolation] = []
        for key in keys:
            chain = view.chain_for(key)
            head_seq = self._applied[(site, chain[0])].get(key, [])
            for member in chain[1:]:
                member_seq = self._applied[(site, member)].get(key, [])
                if len(member_seq) > len(head_seq) or any(
                    m != h for m, h in zip(member_seq, head_seq)
                ):
                    found.append(
                        InvariantViolation(
                            kind="chain-prefix",
                            node=f"{site}:{member}",
                            key=key,
                            detail=(
                                f"applied sequence ({len(member_seq)} versions) "
                                f"is not a prefix of the head's "
                                f"({len(head_seq)} versions)"
                            ),
                        )
                    )
        return found

    def _check_order_consistency(
        self, site: str, keys: List[str]
    ) -> List[InvariantViolation]:
        """Pairwise check: replicas never disagree on the order of
        writes they both applied. This is the part of the prefix
        property that survives crashes and chain repair — a replica may
        hold a subset (it crashed, joined late, or the chain moved), but
        two replicas applying the same two writes in opposite orders
        means a write bypassed chain order."""
        found: List[InvariantViolation] = []
        names = [node.name for node in self.store.nodes[site]]
        for key in keys:
            sequences = [
                (name, self._applied[(site, name)].get(key, []))
                for name in names
            ]
            for i, (name_a, seq_a) in enumerate(sequences):
                rank_a = {version: pos for pos, version in enumerate(seq_a)}
                for name_b, seq_b in sequences[i + 1 :]:
                    common = [v for v in seq_b if v in rank_a]
                    ranks = [rank_a[v] for v in common]
                    if any(lo >= hi for lo, hi in zip(ranks, ranks[1:])):
                        found.append(
                            InvariantViolation(
                                kind="chain-order",
                                node=f"{site}:{name_a}~{site}:{name_b}",
                                key=key,
                                detail=(
                                    f"replicas applied {len(common)} common "
                                    "versions in different relative orders"
                                ),
                            )
                        )
        return found

    def keys_tracked(self) -> int:
        return len({
            key
            for per_key in self._applied.values()
            for key in per_key
        })

    def report(self) -> InvariantReport:
        """Final report: runtime violations plus the end-of-run prefix scan."""
        return InvariantReport(
            violations=list(self.violations) + self.check_prefix_property(),
            applies_checked=self.applies_checked,
            stability_checks=self.stability_checks,
            gets_checked=self.gets_checked,
            keys_checked=self.keys_tracked(),
        )
