"""The ``StabilityPlane`` interface: how causal visibility is decided.

ChainReaction needs three facts per record — *is it DC-stable*, *is it
globally stable*, and *when may a dependent write proceed* — and the
seed implementation answers them with explicit per-write notification
streams (``ChainStable`` cascades, ``RemoteUpdate`` fan-out,
``GlobalStableNotice``).  This module extracts that machinery behind an
interface so a rival metadata plane can answer the same three questions
differently:

- :class:`NoticesPlane` — the paper's plane, byte-identical to the
  pre-interface code (the golden trace pins this).
- :class:`~repro.core.clockplane.ClockNodePlane` — hybrid-logical-clock
  stamps plus a periodic per-DC stability vector; per-write notice
  streams disappear entirely (Okapi-style deferred stabilization).

``ChainReactionConfig.stability`` selects the plane; every
:class:`~repro.core.node.ChainNode` owns one instance (``node.plane``)
and routes each stability decision through it.  The hooks are exactly
the seams where the two planes differ — chain propagation, repair, and
reads themselves are shared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.core.messages import ChainStable, Deps, PutRequest, ReadReply, TailStable
from repro.sim.hlc import NO_HLC
from repro.sim.process import Future
from repro.storage.version import VersionVector

if TYPE_CHECKING:
    from repro.core.node import ChainNode

__all__ = ["StabilityPlane", "NoticesPlane", "make_plane"]


class StabilityPlane:
    """Per-node strategy object for one stabilization protocol.

    Hook contract (all called by :class:`~repro.core.node.ChainNode`):

    - ``unresolved_deps(msg)`` — which of a put's dependencies must be
      waited on at the head (how is the node's business: one
      :class:`~repro.core.stability.DepWait` each, on either plane).
    - ``wait_stable(key, version)`` — the tail's side of such a wait.
    - ``stamp_put(msg)`` — plane metadata minted for a freshly admitted
      local put (an HLC stamp on the clock plane, :data:`NO_HLC` on the
      notices plane).  Called with no intervening yield before the
      write is applied.
    - ``observe(hlc)`` / ``note_applied(key, hlc)`` — clock bookkeeping
      on message receipt and local application (no-ops for notices).
    - ``record_is_stable`` / ``record_is_global`` — the visibility
      questions every read and snapshot path asks.
    - ``tail_stabilise(...)`` — what the chain tail does when a write
      completes its chain: the notices plane starts the notification
      cascade; the clock plane retires the stamp.
    - ``needs_restabilise`` / ``transfer_record`` — chain-repair hooks.
    - ``annotate_read(reply, key)`` — plane-specific read-reply fields.
    - ``hlc_entry_count`` / ``max_skew`` — metrics gauges.
    """

    __slots__ = ("node",)

    name = "abstract"

    def __init__(self, node: "ChainNode") -> None:
        self.node = node

    # -- dependency waits (head role) ----------------------------------
    def unresolved_deps(self, msg: PutRequest) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def wait_stable(self, key: str, version: VersionVector) -> Future:
        """A future resolving once ``version`` of ``key`` is DC-stable
        here — the server side of the ``wait_stable`` RPC."""
        raise NotImplementedError

    # -- write metadata ------------------------------------------------
    def stamp_put(self, msg: PutRequest) -> Any:
        return NO_HLC

    def observe(self, hlc: Any) -> None:
        return None

    def note_applied(self, key: str, hlc: Any) -> None:
        return None

    # -- visibility questions ------------------------------------------
    def record_is_stable(self, key: str, version: VersionVector) -> bool:
        raise NotImplementedError

    def record_is_global(
        self, key: str, version: VersionVector, dc_stable: bool
    ) -> bool:
        raise NotImplementedError

    # -- tail completion -----------------------------------------------
    def tail_stabilise(
        self,
        key: str,
        value: Any,
        version: VersionVector,
        deps: Deps,
        origin_site: str,
        origin_put_at: float,
        chain: List[str],
        stamp: Any,
        hlc: Any,
    ) -> None:
        raise NotImplementedError

    # -- chain repair --------------------------------------------------
    def needs_restabilise(self, key: str, version: VersionVector) -> bool:
        raise NotImplementedError

    def transfer_record(self, record: Any) -> Tuple:
        """The :class:`StateTransfer` entry for ``record``; its fourth
        slot is what the sender knows DC-stable about the key."""
        return (
            record.key,
            record.value,
            record.version,
            self.node.stability.stable_version(record.key),
            record.stamp,
        )

    def transfer_hlc(self, key: str) -> Any:
        return NO_HLC

    # -- clock-plane control traffic (no-ops on notices) ---------------
    def on_clock_tick(self, msg: Any) -> None:
        return None

    def on_tail_applied(self, msg: Any) -> None:
        return None

    # -- read replies / lifecycle / gauges -----------------------------
    def annotate_read(self, reply: ReadReply, key: str) -> None:
        return None

    def on_recover(self) -> None:
        return None

    def hlc_entry_count(self) -> int:
        return 0

    def max_skew(self) -> int:
        return 0


class NoticesPlane(StabilityPlane):
    """The paper's explicit plane: per-write stability notifications.

    Every hook delegates to the node's :class:`StabilityTracker` pair
    and emits exactly the messages the pre-interface code emitted, in
    the same order — the golden trace holds this plane bit-identical.
    """

    __slots__ = ()

    name = "notices"

    def unresolved_deps(self, msg: PutRequest) -> List[Tuple[str, Any]]:
        node = self.node
        placement = node.placement
        return [
            (dep_key, entry)
            for dep_key, entry in msg.deps.items()
            # Same-key dependencies need no wait here: the chain orders
            # this put after them, and shipping only on DC-stability
            # means they are stable before this write leaves the DC.
            # Under partial replication, dependencies on shards this
            # site does not own are not locally checkable and are
            # skipped: reads of those keys forward to the dependency's
            # primary owner (whose chain serialised it before this put
            # existed), and forwarded reads of *this* write carry the
            # entry onward via ``fwd_deps`` for the reader's DC to check.
            if dep_key != msg.key
            and (placement is None or placement.owns(node.site, dep_key))
            and not node.stability.is_stable(dep_key, entry.version)
        ]

    def wait_stable(self, key: str, version: VersionVector) -> Future:
        return self.node.stability.wait(self.node.sim, key, version)

    def record_is_stable(self, key: str, version: VersionVector) -> bool:
        return self.node.stability.is_stable(key, version)

    def record_is_global(
        self, key: str, version: VersionVector, dc_stable: bool
    ) -> bool:
        if self.node.config.is_geo:
            return self.node.global_stability.is_stable(key, version)
        return dc_stable

    def tail_stabilise(
        self,
        key: str,
        value: Any,
        version: VersionVector,
        deps: Deps,
        origin_site: str,
        origin_put_at: float,
        chain: List[str],
        stamp: Any,
        hlc: Any,
    ) -> None:
        node = self.node
        node.stability.record(key, version)
        node._refresh_stable_record(key)
        if node.tracer is not None:
            node.trace("stability", "dc-stable", key, version=str(version))
        if len(chain) > 1:
            upstream = node.view.address_of(chain[-2])
            if node._stable_coalescer is not None:
                node._stable_coalescer.add(upstream, key, version)
            else:
                node.send(
                    upstream,
                    ChainStable(key=key, version=version, position=len(chain) - 2),
                )
        if node.config.is_geo:
            node.send(
                node._geoproxy,
                TailStable(
                    key=key,
                    value=value,
                    version=version,
                    stamp=stamp,
                    deps=deps,
                    origin_site=origin_site,
                    origin_put_at=origin_put_at,
                ),
            )

    def needs_restabilise(self, key: str, version: VersionVector) -> bool:
        return not self.node.stability.is_stable(key, version)


def make_plane(node: "ChainNode") -> StabilityPlane:
    """Instantiate the plane selected by ``node.config.stability``."""
    if node.config.stability == "clock":
        from repro.core.clockplane import ClockNodePlane

        return ClockNodePlane(node)
    return NoticesPlane(node)
