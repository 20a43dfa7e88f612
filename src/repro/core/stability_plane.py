"""The stabilization-plane seam: how causal visibility is decided.

ChainReaction needs three facts per record — *is it DC-stable*, *is it
globally stable*, and *when may a dependent write proceed* — and the
seed implementation answers them with explicit per-write notification
streams (``ChainStable`` cascades, ``RemoteUpdate`` fan-out,
``GlobalStableNotice``).  This module puts that machinery behind an
interface so a rival metadata plane can answer the same three questions
differently. A plane has two halves: a :class:`StabilityPlane` on every
:class:`~repro.core.node.ChainNode` (``node.plane``) and a
:class:`SitePlane` on every :class:`~repro.core.geo.GeoProxy`
(``proxy.plane``) — what leaves the datacenter once a tail reports a
write DC-stable. Each half also binds, on its host, the handlers for the
message types only its plane understands.

``ChainReactionConfig.stability`` names the plane and :data:`PLANES`
below is the one table from a name to what builds it:

- :class:`NoticesPlane` / :class:`NoticesShipping` — the paper's plane,
  byte-identical to the pre-interface code (the golden trace pins this).
- :mod:`repro.core.batching` — the same plane with its three streams
  coalesced and fully-stable keys sealed.
- :mod:`repro.core.clockplane` — hybrid-logical-clock stamps plus a
  periodic per-DC stability vector; per-write notice streams disappear
  entirely (Okapi-style deferred stabilization).

Nothing else asks which plane is running (``tests/test_plane_seam.py``):
chain propagation, repair, reads, the inbound half of the proxy and the
deployment facade are shared.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Type

from repro.cluster.ring import chain_positions
from repro.core.config import ChainReactionConfig
from repro.core.messages import (
    ChainStable,
    Deps,
    GlobalAck,
    GlobalStableNotice,
    PutRequest,
    RemoteUpdate,
    TailStable,
)
from repro.core.stability import StabilityTracker
from repro.metrics.protocol import GLOBAL_STABILITY_MESSAGE_TYPES, STABILITY_MESSAGE_TYPES
from repro.net.network import Address
from repro.sim.hlc import NO_HLC
from repro.sim.process import Future
from repro.storage.version import ZERO, VersionVector

if TYPE_CHECKING:
    from repro.core.geo import GeoProxy
    from repro.core.node import ChainNode

__all__ = ["PLANES", "StabilityPlane", "SitePlane", "NoticesPlane", "NoticesShipping", "plane_parts"]


class _PlaneHalf:
    """What the two halves of a plane share with respect to their host
    actor: handlers bound on it, a crash hook, a metrics hook."""

    __slots__ = ()

    #: ``on_<type>`` methods of this half, bound on its host as the
    #: handlers of the message types only this plane understands
    handles: Tuple[str, ...] = ()

    def _bind(self, host: Any) -> None:
        # ``Actor._bind_handler`` resolves ``on_<type>`` through the instance.
        for name in self.handles:
            setattr(host, name, getattr(self, name))

    def on_recover(self) -> None:
        return None

    def hears_stability(self, key: str) -> bool:
        """Whether this half is told when ``key`` becomes DC-stable here,
        so that a :class:`~repro.core.stability.DepWait` on its host may
        first wait on :meth:`wait_stable` before asking the key's tail."""
        return False

    def coalescers(self) -> Dict[str, Any]:
        """Stream name → coalescer, for the planes that batch."""
        return {}


class StabilityPlane(_PlaneHalf):
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
    - ``observe(hlc)`` / ``note_applied(key, hlc, replaced)`` — bookkeeping
      on message receipt and local application (``replaced``: the record
      the write overwrote, None for a key's first).
    - ``record_is_stable`` / ``record_is_global`` — the visibility
      questions every read and snapshot path asks.
    - ``tail_stabilise(...)`` — what the chain tail does when a write
      completes its chain: the notices plane starts the notification
      cascade; the clock plane retires the stamp.
    - ``needs_restabilise`` / ``transfer_record`` / ``note_transferred``
      — chain-repair hooks.
    - ``mark_converged(version, arbitrated, placed)`` — preload's hook,
      the twin of :meth:`SitePlane.mark_converged`.
    - ``annotate_read(key)`` — the plane's field of a read reply (its ``hlc``).
    - ``metadata`` / ``max_skew`` / ``coalescers`` — metrics gauges.

    What the deployment facade and the metrics ask of the *class*:
    the ``capability`` it advertises, the ``control_types`` it spends on
    stabilization alone, and whether a session drops a dependency once
    a read reports it globally stable, whatever ``collapse_deps_on_put``
    says (``prunes_stable_deps``: a sealing plane bounds metadata, and
    such an entry constrains no read and no remote delivery).
    """

    __slots__ = ("node",)

    capability: Optional[str] = None
    control_types: Tuple[str, ...] = ()
    prunes_stable_deps = False

    def __init__(self, node: "ChainNode") -> None:
        self.node = node
        self._bind(node)

    # -- dependency waits (head role) ----------------------------------
    def unresolved_deps(self, msg: PutRequest) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def wait_stable(self, key: str, version: VersionVector) -> Future:
        """A future resolving once ``version`` of ``key`` is DC-stable
        here — the tail's answer to a :class:`~repro.core.messages.WaitStable`."""
        raise NotImplementedError

    # -- write metadata ------------------------------------------------
    def stamp_put(self, msg: PutRequest) -> Any:
        return NO_HLC

    def observe(self, hlc: Any) -> None:
        return None

    def note_applied(self, key: str, hlc: Any, replaced: Any) -> None:
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

    def _tell_proxy(
        self,
        key: str,
        value: Any,
        version: VersionVector,
        deps: Deps,
        origin_site: str,
        origin_put_at: float,
        stamp: Any,
        hlc: Any,
    ) -> None:
        """Send the site's geo-proxy the :class:`TailStable` for a write
        that just became DC-stable here. A remote-origin write is not
        shipped again, so its notice carries no value, stamp, deps or
        put time: the site halves read only its key, version, origin and
        HLC stamp."""
        node = self.node
        if origin_site == node.site:
            notice = TailStable(
                key=key,
                value=value,
                version=version,
                stamp=stamp,
                deps=deps,
                origin_site=origin_site,
                origin_put_at=origin_put_at,
                hlc=hlc,
            )
        else:
            notice = TailStable(key=key, version=version, origin_site=origin_site, hlc=hlc)
        node.send(node._geoproxy, notice)

    # -- chain repair --------------------------------------------------
    def needs_restabilise(self, key: str, version: VersionVector) -> bool:
        raise NotImplementedError

    def transfer_record(self, record: Any) -> Tuple:
        """The :class:`StateTransfer` entry for ``record``; its fourth
        slot is what the sender knows DC-stable about the key."""
        return self._transfer_entry(record, ZERO, self.transfer_hlc(record.key))

    def _transfer_entry(self, record: Any, stable: VersionVector, hlc: Any) -> Tuple:
        """``(key, value, version, stable, stamp, hlc, deps)``, where
        ``deps`` is the dependency list of the write that produced the
        record. Trailing slots that would carry nothing are left off, so
        a record without dependencies costs the bytes it always did."""
        entry = (record.key, record.value, record.version, stable, record.stamp)
        deps = self.node.record_deps(record.key)
        if deps:
            return entry + (hlc, deps)
        return entry if hlc is NO_HLC else entry + (hlc,)

    def transfer_hlc(self, key: str) -> Any:
        return NO_HLC

    def note_transferred(self, key: str, stable: VersionVector) -> None:
        """A transfer installed ``key``, its entry's stable slot ``stable``."""
        return None

    def mark_converged(
        self, version: VersionVector, arbitrated: List[str], placed: Callable[[], List[str]]
    ) -> None:
        """Preload installed every record at or below ``version`` here,
        converged, except that the store arbitrated the keys in
        ``arbitrated``; ``placed()`` lists every key it handed this node."""
        return None

    # -- read replies / gauges -----------------------------------------
    def annotate_read(self, key: str) -> Any:
        """The ``hlc`` a read reply of ``key`` carries: :data:`NO_HLC`
        (zero bytes) unless the plane stamps writes."""
        return NO_HLC

    def metadata(self) -> Dict[str, int]:
        """This server's summed gauges of ``protocol_stats()["metadata"]``."""
        return {"stable_map_entries": sum(len(deps) for deps in self.node._record_deps.values())}

    def max_skew(self) -> int:
        return 0


class NoticesPlane(StabilityPlane):  # repro: lint-ok(slots) — invariant monitor rebinds mark_converged / seal per instance; one per server
    """The paper's explicit plane: per-write stability notifications.

    Every hook answers from the plane's :class:`StabilityTracker` pair
    (``stability``: DC-stable here; ``global_stability``: in every DC)
    and emits exactly the messages the pre-interface code emitted, in
    the same order — the golden trace holds this plane bit-identical.
    """

    handles = ("on_chain_stable", "on_global_stable_notice")
    control_types = STABILITY_MESSAGE_TYPES + GLOBAL_STABILITY_MESSAGE_TYPES + ("global-ack",)

    def __init__(self, node: "ChainNode") -> None:
        super().__init__(node)
        self.stability = StabilityTracker()
        self.global_stability = StabilityTracker()
        #: what :meth:`mark_converged` vouched for: a stored record at or
        #: below it is stable, with no tracker entry until overwritten
        self._converged = ZERO
        self.stability.set_floor(self._floor)
        self.global_stability.set_floor(self._floor)

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
            and placement.owns(node.site, dep_key)
            and not self.stability.is_stable(dep_key, entry.version)
        ]

    def wait_stable(self, key: str, version: VersionVector) -> Future:
        return self.stability.wait(self.node.sim, key, version)

    def note_applied(self, key: str, hlc: Any, replaced: Any) -> None:
        if replaced is not None and self._converged.dominates(replaced.version):
            self._unseal(key, replaced.version)

    def _unseal(self, key: str, vouched: VersionVector) -> None:
        """The floor answered ``vouched`` for ``key`` off the record just
        replaced: both trackers adopt it before anything asks again."""
        self.stability.adopt(key, vouched)
        self.global_stability.adopt(key, vouched)

    def record_is_stable(self, key: str, version: VersionVector) -> bool:
        return self.stability.is_stable(key, version)

    def record_is_global(
        self, key: str, version: VersionVector, dc_stable: bool
    ) -> bool:
        if self.node.config.is_geo:
            return self.global_stability.is_stable(key, version)
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
        self.stability.record(key, version)
        node._refresh_stable_record(key)
        if node.tracer is not None:
            node.trace("stability", "dc-stable", key, version=str(version))
        if len(chain) > 1:
            self._notify_upstream(node.view.address_of(chain[-2]), key, version, len(chain) - 2)
        if node.config.is_geo:
            self._tell_proxy(key, value, version, deps, origin_site, origin_put_at, stamp, NO_HLC)

    def _notify_upstream(
        self, upstream: Address, key: str, version: VersionVector, position: int
    ) -> None:
        self.node.send(upstream, ChainStable(key=key, version=version, position=position))

    def on_chain_stable(self, msg: ChainStable, src: Address) -> None:
        self._cascade(msg.key, msg.version)

    def _cascade(self, key: str, version: VersionVector) -> None:
        """One step of the stability cascade: record ``version`` of
        ``key`` DC-stable here and pass it on to the upstream neighbour."""
        node = self.node
        self.stability.record(key, version)
        node._refresh_stable_record(key)
        chain = node.chain_for(key)
        pos = chain_positions(chain, node.name)
        if pos is not None and pos > 0:
            self._notify_upstream(node.view.address_of(chain[pos - 1]), key, version, pos - 1)

    def on_global_stable_notice(self, msg: GlobalStableNotice, src: Address) -> None:
        node = self.node
        if node.tracer is not None:
            node.trace("stability", "global-stable", msg.key, version=str(msg.version))
        self.global_stability.record(msg.key, msg.version)

    def needs_restabilise(self, key: str, version: VersionVector) -> bool:
        return not self.stability.is_stable(key, version)

    def transfer_record(self, record: Any) -> Tuple:
        return self._transfer_entry(record, self.stability.stable_version(record.key), NO_HLC)

    def note_transferred(self, key: str, stable: VersionVector) -> None:
        if not stable.is_zero():
            self.stability.record(key, stable)
            self.node._refresh_stable_record(key)

    # -- the floor -----------------------------------------------------
    def mark_converged(
        self, version: VersionVector, arbitrated: List[str], placed: Callable[[], List[str]]
    ) -> None:
        """Vouch for every stored record at or below ``version``: it was
        installed converged, on every replica of every datacenter, so it
        answers for itself through :meth:`_floor`. A rule on the
        *version*, not on a flag or on ``Record`` identity: log replay
        and state transfer re-create records, and a re-created converged
        record is no less stable. A key the store arbitrated holds
        whatever won, which the rule may not cover: recorded per key."""
        keys = arbitrated
        if self.stability.pending_waiters() or self.global_stability.pending_waiters():
            # Only ``record`` wakes a parked waiter: every key preload
            # handed this node is recorded, and nothing is vouched for.
            keys = placed()
        else:
            self._converged = self._converged.merge(version)
        self.stability.record_all(keys, version)
        self.global_stability.record_all(keys, version)

    def _floor(self, key: str) -> VersionVector:
        """Stable version — DC and global alike — of a key with no live
        tracker entry: its live record's iff that was installed converged.
        Runs once per read of a never-written key: keep it flat."""
        held = self.node.store.version_of(key)
        return held if self._converged.dominates(held) else ZERO

    def metadata(self) -> Dict[str, int]:
        # what sealing can reclaim: tracker entries and dependency lists
        gauges = super().metadata()
        trackers = (self.stability, self.global_stability)
        gauges["stable_map_entries"] += sum(tracker.entry_count() for tracker in trackers)
        gauges["entries_sealed"] = sum(tracker.entries_sealed for tracker in trackers)
        return gauges


class SitePlane(_PlaneHalf):
    """Per-site half of a plane, hosted by the site's geo-proxy: what
    the site ships, and tells its peers, once a tail reports a write
    DC-stable. Inbound updates are the proxy's own business on every
    plane (``GeoProxy._enqueue``)."""

    __slots__ = ("proxy",)

    def __init__(self, proxy: "GeoProxy") -> None:
        self.proxy = proxy
        self._bind(proxy)

    def cut_lag(self) -> float:
        """Seconds the plane's global-stabilization cut trails the clock."""
        return 0.0

    def mark_converged(self, version: VersionVector) -> None:
        """Preload installed every record at or below ``version`` on
        every replica of the site."""
        return None


class NoticesShipping(SitePlane):
    """The paper's site half: one :class:`RemoteUpdate` per peer per
    DC-stable local write, a :class:`GlobalAck` back per remote one, and
    a :class:`GlobalStableNotice` round once every owner DC has acked.

    Every :class:`TailStable` the site's tails send, local and remote
    origin alike, is also recorded in the half's own
    :class:`StabilityTracker`, so an inbound update's dependency waits
    (:class:`~repro.core.stability.DepWait`) are answered here, from the
    stream the tails already send, rather than by a ``WaitStable`` to a
    tail per dependency. Its floor is what preload installed converged."""

    __slots__ = ("_pending_global", "_stable", "_converged")

    handles = ("on_tail_stable", "on_global_ack", "on_global_stable_notice")

    def __init__(self, proxy: "GeoProxy") -> None:
        super().__init__(proxy)
        #: (key, version) → (sites yet to ack, origin put time), for
        #: every local write shipped and not yet globally stable
        self._pending_global: Dict[Tuple[str, VersionVector], Tuple[Set[str], float]] = {}
        #: what this site's tails announced DC-stable
        self._stable = StabilityTracker()
        #: what :meth:`mark_converged` vouched for, DC-stable for every key
        self._converged = VersionVector()
        self._stable.set_floor(self._floor)

    def mark_converged(self, version: VersionVector) -> None:
        self._converged = self._converged.merge(version)

    def _floor(self, key: str) -> VersionVector:
        return self._converged

    def hears_stability(self, key: str) -> bool:
        return True

    def wait_stable(self, key: str, version: VersionVector) -> Future:
        """A future resolving once a tail here announced ``version`` of
        ``key`` DC-stable (or preload installed it converged)."""
        return self._stable.wait(self.proxy.sim, key, version)

    def on_tail_stable(self, msg: TailStable, src: Address) -> None:
        proxy = self.proxy
        self._stable.record(msg.key, msg.version)
        token = (msg.key, msg.version)
        if msg.origin_site != proxy.site:
            # Remote-origin write finished our chain: tell the origin.
            origin = proxy._proxies[msg.origin_site]
            proxy.send(origin, GlobalAck(key=msg.key, version=msg.version, site=proxy.site))
            return
        if token in self._pending_global:
            # Repair re-stabilisation can re-announce a version. Only
            # writes still awaiting acks are suppressed: a globally stable
            # one needs no suppression, so memory follows in-flight writes.
            proxy.duplicate_ships += 1
            return
        proxy.updates_shipped += 1
        if proxy.tracer is not None:
            proxy.trace("geo", "ship", msg.key, version=str(msg.version))
        # The catalog decides which peers receive the write, with which
        # dependency entries; unpruned peers share one frozen update.
        catalog = proxy._catalog
        peers = catalog.owner_peers(proxy._peers, msg.key)
        if not peers:
            self._globally_stable(msg.key, msg.version, msg.origin_put_at)
            return
        self._pending_global[token] = ({p.site for p in peers}, msg.origin_put_at)
        update = RemoteUpdate(
            key=msg.key,
            value=msg.value,
            version=msg.version,
            stamp=msg.stamp,
            deps=msg.deps,
            origin_site=proxy.site,
            origin_put_at=msg.origin_put_at,
        )
        for peer, (share,) in catalog.prune(peers, (update,)):
            self._ship(peer, share)

    def _ship(self, peer: Address, update: RemoteUpdate) -> None:
        self.proxy.send(peer, update)

    def on_global_ack(self, msg: GlobalAck, src: Address) -> None:
        token = (msg.key, msg.version)
        pending = self._pending_global.get(token)
        if pending is None:
            return  # duplicate ack after completion
        waiting, origin_put_at = pending
        waiting.discard(msg.site)
        if not waiting:
            del self._pending_global[token]
            self._globally_stable(msg.key, msg.version, origin_put_at)

    def _globally_stable(self, key: str, version: VersionVector, origin_put_at: float) -> None:
        proxy = self.proxy
        proxy.global_stability_samples.append(proxy.sim.now - origin_put_at)
        self._announce_global(proxy._catalog.owner_peers(proxy._peers, key), key, version)

    def _announce_global(self, peers: List[Address], key: str, version: VersionVector) -> None:
        """Tell every owner DC (and our own chain members) the write is
        globally stable, so client dependency tables can prune it."""
        if peers:
            notice = GlobalStableNotice(key=key, version=version, fan_out=True)
            for peer in peers:
                self.proxy.send(peer, notice)
        self._fan_out_global(key, version)

    def _fan_out_global(self, key: str, version: VersionVector) -> None:
        proxy = self.proxy
        # One frozen notice for every chain member, sized once.
        notice = GlobalStableNotice(key=key, version=version)
        for server in proxy.view.chain_for(key):
            proxy.send(proxy.view.address_of(server), notice)

    def on_global_stable_notice(self, msg: GlobalStableNotice, src: Address) -> None:
        if msg.fan_out:
            self._fan_out_global(msg.key, msg.version)


#: Plane name → (module, server half, site half): the one table that
#: knows the alternatives, its keys :data:`~repro.core.config.STABILITY_PLANES`.
#: Every site builds one geo-proxy, a single site's included, so the site
#: half is a plane's per-site role on every deployment. Classes are named,
#: not referenced: their modules import this one for its bases.
PLANES: Dict[str, Tuple[str, str, str]] = {
    "notices": (__name__, "NoticesPlane", "NoticesShipping"),
    "notices+batch": ("repro.core.batching", "BatchedNoticesPlane", "BatchedShipping"),
    "clock": ("repro.core.clockplane", "ClockNodePlane", "GeoClockCore"),
}


for _entry in PLANES.values():
    # Loaded with the seam, not inside the first deployment's set-up.
    importlib.import_module(_entry[0])


@dataclasses.dataclass(frozen=True)
class PlaneParts:
    server: Type[StabilityPlane]
    site: Type[SitePlane]


def plane_parts(config: ChainReactionConfig) -> PlaneParts:
    """The classes :data:`PLANES` names for ``config``'s plane."""
    module, server, site = PLANES[config.stability]
    loaded = importlib.import_module(module)
    return PlaneParts(getattr(loaded, server), getattr(loaded, site))
