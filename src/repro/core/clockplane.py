"""The clock stability plane: HLC stamps + periodic stability vectors.

The clock plane (``ChainReactionConfig.stability``) replaces every per-write
stability notification with clock arithmetic (the Okapi / deferred-
update-stabilization design from the related work):

- The chain **head** stamps each locally admitted put with a
  :class:`~repro.sim.hlc.HybridClock` value and keeps the stamp in an
  in-flight set until the **tail** reports back one tiny
  ``TailApplied`` (the only remaining per-write control message, and it
  is chain-local).
- Every server reports a **low-stamp floor** to its site's geo-proxy
  once per ``stability_interval``: no write it heads will ever be
  stamped at or below the floor.  ``min`` over the floors is the site's
  *local stability timestamp* (LST): every local write stamped ≤ LST is
  tail-applied in this DC.
- The **geo-proxy** hosts the site half, :class:`GeoClockCore`, on
  every deployment (a single site's has no peers: its cut is its own
  LST, and it ships nothing).  It ships DC-stable local writes in
  stamp-ordered ``ClockShip`` batches bounded by the LST, and
  broadcasts one ``StabilityVector`` per peer per interval carrying
  ``(ship_lst, visible)``.  ``visible`` is the site's applied horizon:
  ``min(local LST, just-below the oldest received-but-not-yet-applied
  remote update, min over peers' ship_lst)`` — the last term covers
  writes that exist remotely but have not arrived here.  Because the
  ship batch is flushed before the vector on the same FIFO link, a peer
  that trusts a vector has already received every update the vector
  covers.
- The **global-stabilization cut** is ``min`` over every site's
  ``visible``.  A write is globally stable — prunable from dependency
  tables — exactly when the cut passes its stamp.  ``ClockTick``
  messages push ``(visible, cut)`` to the local servers, waking parked
  dependency waits and answering read-stability queries; no tracker
  entries, cascades, acks or notices exist on this plane.

Remote updates are injected strictly in stamp order once the site's
``visible`` horizon passes their dependencies' stamps (dependencies
always carry smaller stamps than their dependents, so ordered injection
cannot deadlock).  Liveness under crashes is timeout-based: in-flight
head entries and pending-injection entries are dropped after
``2 * SYNC_TIMEOUT`` (chain repair re-stabilises stranded writes), and
floors from servers silent for ``2 * failure_timeout`` are ignored.

Per-event horizon work is O(log n) amortised in the number of writes in
flight.  One :class:`StampSet` structure serves all three sets the plane
keeps — a head's in-flight stamps, a site's pending injections and its
shipped-but-not-globally-stable writes — so a floor or ``visible``
reads the oldest entry off a lazy heap instead of scanning, and the cut
prunes the shipped set from the heap's bottom.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.api import CAP_CLOCK_STABILITY
from repro.core.messages import (
    ClockReport,
    ClockShip,
    ClockTick,
    Deps,
    PutRequest,
    RemoteUpdate,
    StabilityVector,
    TailApplied,
    TailStable,
)
from repro.core.stability_plane import SitePlane, StabilityPlane
from repro.metrics.protocol import CLOCK_STABILITY_MESSAGE_TYPES
from repro.net.network import Address
from repro.sim.hlc import HLC_ZERO, NO_HLC, HLCStamp, HybridClock, just_below
from repro.sim.process import Future
from repro.storage.version import ZERO, VersionVector

if TYPE_CHECKING:
    from repro.core.geo import GeoProxy
    from repro.core.node import ChainNode

__all__ = ["ClockNodePlane", "GeoClockCore", "FloorTable", "StampSet"]

#: stamp key tuple — unique total order (see repro.sim.hlc)
_Key = Tuple[int, int, str]


class FloorTable:
    """Per-site table of server low-stamp floors.

    ``local_lst`` is ``min`` over the *current view's* servers; a server
    that has never reported pins the LST at zero (conservative), and one
    silent past ``stale_after`` is presumed crashed and skipped (chain
    repair re-homes its writes).
    """

    __slots__ = ("_floors", "stale_after")

    def __init__(self, stale_after: float) -> None:
        self._floors: Dict[str, Tuple[HLCStamp, float]] = {}
        self.stale_after = stale_after

    def update(self, server: str, floor: HLCStamp, now: float) -> None:
        cur = self._floors.get(server)
        if cur is None or floor > cur[0]:
            self._floors[server] = (floor, now)
        else:
            self._floors[server] = (cur[0], now)

    def local_lst(self, servers: Tuple[str, ...], now: float) -> HLCStamp:
        lst: Optional[HLCStamp] = None
        for server in servers:
            got = self._floors.get(server)
            if got is None:
                return HLC_ZERO
            floor, heard = got
            if now - heard > self.stale_after:
                continue
            if lst is None or floor < lst:
                lst = floor
        return lst if lst is not None else HLC_ZERO


class StampSet:
    """Stamps in flight: ``stamp-key → (stamp, at)`` plus a lazy min-heap.

    One structure answers every horizon question the plane asks of a set
    of writes — the head's in-flight stamps, a site's pending remote
    injections, a site's shipped-but-not-globally-stable writes:

    - :meth:`oldest` is the smallest live stamp, amortised O(log n):
      removals only delete the dict entry, and the heap drops a dead key
      when it surfaces;
    - :meth:`drop_through` forgets every stamp at or below a horizon in
      O(k log n) for the k it forgets;
    - :meth:`drop_stale` forgets entries last added before a cutoff (a
      scan, run once per control interval, never per event).

    Re-adding a live key refreshes its ``at`` without a second heap
    entry; re-adding a dropped key pushes it again (a dead copy still in
    the heap is harmless).  The heap is rebuilt from the dict once dead
    keys outnumber live ones by more than a small slack, so it stays
    O(live).
    """

    __slots__ = ("_entries", "_heap")

    def __init__(self) -> None:
        self._entries: Dict[_Key, Tuple[HLCStamp, float]] = {}
        self._heap: List[_Key] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: _Key) -> bool:
        return key in self._entries

    def add(self, stamp: HLCStamp, at: float) -> None:
        key = stamp.key()
        entries = self._entries
        if key not in entries:
            heap = self._heap
            if len(heap) > 2 * len(entries) + 64:
                heap[:] = entries
                heapify(heap)
            heappush(heap, key)
        entries[key] = (stamp, at)

    def discard(self, key: _Key) -> None:
        self._entries.pop(key, None)

    def oldest(self) -> Optional[HLCStamp]:
        """The smallest live stamp, or ``None`` when the set is empty."""
        heap = self._heap
        entries = self._entries
        while heap:
            got = entries.get(heap[0])
            if got is not None:
                return got[0]
            heappop(heap)
        return None

    def drop_through(self, key: _Key) -> None:
        """Forget every stamp whose key is ≤ ``key``."""
        heap = self._heap
        entries = self._entries
        while heap and heap[0] <= key:
            entries.pop(heappop(heap), None)

    def drop_stale(self, cutoff: float) -> None:
        """Forget every entry whose last ``at`` is before ``cutoff``."""
        entries = self._entries
        for key in [k for k, rec in entries.items() if rec[1] < cutoff]:
            del entries[key]


class ClockNodePlane(StabilityPlane):
    """Node-side clock plane: stamping, floors, parked waits, answers."""

    __slots__ = (
        "clock",
        "lst",
        "cut",
        "_inflight",
        "_waiters",
        "_wait_seq",
        "_apply_waiters",
        "_hlc_of",
        "_deps_fifo",
        "_interval",
        "_inflight_timeout",
        "_prune_deps",
    )

    handles = ("on_clock_tick", "on_tail_applied")
    capability = CAP_CLOCK_STABILITY
    control_types = CLOCK_STABILITY_MESSAGE_TYPES

    def __init__(self, node: "ChainNode") -> None:
        super().__init__(node)
        config = node.config
        self.clock = HybridClock(node.sim, f"{node.site}:{node.name}")
        #: the site's applied horizon (from ClockTick); monotone
        self.lst = HLC_ZERO
        #: the global-stabilization cut (from ClockTick); monotone
        self.cut = HLC_ZERO
        #: (stamp, minted_at) of local puts this head stamped whose
        #: TailApplied has not come back yet
        self._inflight = StampSet()
        #: parked dependency waits: (stamp-key, seq, future)
        self._waiters: List[Tuple[_Key, int, Future]] = []
        self._wait_seq = 0
        #: wait_stable callers parked until the version arrives here
        self._apply_waiters: Dict[str, List[Tuple[VersionVector, Future]]] = {}
        #: newest applied stamp per key — the record-stability answer
        self._hlc_of: Dict[str, HLCStamp] = {}
        #: (stamp, key) in apply order, pruned as the cut passes —
        #: bounds ``_record_deps`` like the batched plane's sealing does
        self._deps_fifo: Deque[Tuple[HLCStamp, str]] = deque()
        self._interval = config.stability_interval
        # Local import: repro.core.node loads this module through the plane seam.
        from repro.core.node import SYNC_TIMEOUT

        self._inflight_timeout = 2.0 * SYNC_TIMEOUT
        # Dropping a globally-stable record's dependency list leans on
        # the causal-delivery gate (same argument as sealing, DESIGN
        # §7.8) — disabled under the E10 ablation.
        self._prune_deps = (not config.is_geo) or config.geo_causal_delivery
        node.set_timer(self._interval, self._report_tick)

    # -- dependency waits ----------------------------------------------
    def unresolved_deps(self, msg: PutRequest) -> List[Tuple[str, Any]]:
        lst = self.lst
        node = self.node
        placement = node.placement
        return [
            (dep_key, entry)
            for dep_key, entry in msg.deps.items()
            # Same-key deps are ordered by the chain itself; deps with
            # no stamp predate the clock plane and cannot be waited on.
            # Non-owned shards (partial replication) are skipped for the
            # same reason as on the notices plane: not locally checkable,
            # covered by primary-owner forwarding plus ``fwd_deps``.
            if dep_key != msg.key
            and entry.hlc is not None
            and entry.hlc > lst
            and placement.owns(node.site, dep_key)
        ]

    def wait_stable(self, key: str, version: VersionVector) -> Future:
        # The same question the notices plane's tail is asked, answered
        # from clock state (apply == DC-stable at the tail) instead of
        # the stability tracker, so a dependency wait resolves a LAN hop
        # after the chain commits — not a vector interval later.
        node = self.node
        fut = Future(node.sim)
        record = node.store.get_record(key)
        if record is not None and record.version.dominates(version):
            self._answer_applied(key, fut)
            return fut
        # Not applied here yet: note_applied re-evaluates on arrival.
        self._apply_waiters.setdefault(key, []).append((version, fut))
        return fut

    def _answer_applied(self, key: str, fut: Future) -> None:
        """``fut`` waits on a version of ``key`` applied here: resolve it
        if the record is DC-stable, else park it until a tick's ``lst``
        passes the record's stamp."""
        if self.record_is_stable(key, ZERO):
            fut.try_set_result(True)
        else:
            self._wait_seq += 1
            heappush(self._waiters, (self._hlc_of[key].key(), self._wait_seq, fut))

    # -- write metadata ------------------------------------------------
    def stamp_put(self, msg: PutRequest) -> Any:
        clock = self.clock
        for entry in msg.deps.values():
            if entry.hlc is not None:
                clock.observe(entry.hlc)
        ts = clock.stamp()
        self._inflight.add(ts, self.node.sim.now)
        return ts

    def observe(self, hlc: Any) -> None:
        self.clock.observe(hlc)

    def note_applied(self, key: str, hlc: Any, replaced: Any) -> None:
        if isinstance(hlc, HLCStamp):
            self.clock.observe(hlc)
            cur = self._hlc_of.get(key)
            if cur is None or hlc > cur:
                self._hlc_of[key] = hlc
                if self._prune_deps:
                    self._deps_fifo.append((hlc, key))
        if self._apply_waiters:
            self._wake_apply_waiters(key)

    def _wake_apply_waiters(self, key: str) -> None:
        waiters = self._apply_waiters.pop(key, None)
        if not waiters:
            return
        record = self.node.store.get_record(key)
        applied = record.version if record is not None else None
        still: List[Tuple[VersionVector, Future]] = []
        for version, fut in waiters:
            if applied is not None and applied.dominates(version):
                self._answer_applied(key, fut)
            else:
                still.append((version, fut))
        if still:
            self._apply_waiters[key] = still

    def retire(self, ts: HLCStamp) -> None:
        # Unknown stamps are ignored: repair can route a TailApplied to
        # a head that never stamped the write (or already timed it out).
        self._inflight.discard(ts.key())

    # -- visibility questions ------------------------------------------
    def record_is_stable(self, key: str, version: VersionVector) -> bool:
        ts = self._hlc_of.get(key)
        # A record with no stamp (preloaded or repair-transferred legacy
        # state) is stable by construction, and the tail applying a
        # write *is* DC-stability on this plane. (chain_for, not
        # is_tail: the latter raises for keys whose chain a view change
        # moved away while the record lingers here.)
        return ts is None or ts <= self.lst or self.node.chain_for(key)[-1] == self.node.name

    def record_is_global(
        self, key: str, version: VersionVector, dc_stable: bool
    ) -> bool:
        ts = self._hlc_of.get(key)
        if ts is None:
            return True
        return ts <= self.cut

    def annotate_read(self, key: str) -> Optional[HLCStamp]:
        # Clients thread the stamp into their dependency metadata so a
        # dependent put can name the exact stamp to wait on.
        return self._hlc_of.get(key)

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
        node = self.node
        node._refresh_stable_record(key)
        if node.tracer is not None:
            node.trace("stability", "dc-stable", key, version=str(version))
        ts = hlc if isinstance(hlc, HLCStamp) else None
        if ts is not None:
            self.clock.observe(ts)
            if origin_site == node.site:
                if chain[0] == node.name:
                    self.retire(ts)
                else:
                    node.send(
                        node.view.address_of(chain[0]),
                        TailApplied(key=key, hlc=ts),
                    )
        if node.config.is_geo:
            self._tell_proxy(
                key, value, version, deps, origin_site, origin_put_at, stamp,
                ts if ts is not None else NO_HLC,
            )

    # -- chain repair --------------------------------------------------
    def needs_restabilise(self, key: str, version: VersionVector) -> bool:
        ts = self._hlc_of.get(key)
        return ts is not None and ts > self.cut

    def transfer_hlc(self, key: str) -> Any:
        ts = self._hlc_of.get(key)
        return ts if ts is not None else NO_HLC

    # -- control loop --------------------------------------------------
    def on_clock_tick(self, msg: ClockTick, src: Address) -> None:
        if isinstance(msg.dc_lst, HLCStamp) and msg.dc_lst > self.lst:
            self.lst = msg.dc_lst
        if isinstance(msg.cut, HLCStamp) and msg.cut > self.cut:
            self.cut = msg.cut
        lst_key = self.lst.key()
        waiters = self._waiters
        while waiters and waiters[0][0] <= lst_key:
            _, _, fut = heappop(waiters)
            fut.try_set_result(True)
        if self._prune_deps:
            fifo = self._deps_fifo
            cut = self.cut
            record_deps = self.node._record_deps
            while fifo and fifo[0][0] <= cut:
                ts, key = fifo.popleft()
                # Only prune if no newer write superseded this one —
                # the newer write's own fifo entry covers the key.
                if self._hlc_of.get(key) == ts:
                    record_deps.pop(key, None)
                    # A stamp at or below the cut is globally stable:
                    # stamp-less records answer "stable" everywhere, so
                    # the per-key map stays bounded by in-flight writes.
                    del self._hlc_of[key]

    def on_tail_applied(self, msg: TailApplied, src: Address) -> None:
        if isinstance(msg.hlc, HLCStamp):
            self.clock.observe(msg.hlc)
            self.retire(msg.hlc)

    def _floor(self) -> HLCStamp:
        oldest = self._inflight.oldest()
        if oldest is not None:
            return just_below(oldest)
        return self.clock.peek()

    def _report_tick(self) -> None:
        node = self.node
        # A crashed tail (or a deposed head) can orphan an entry; repair
        # re-stabilises the write, so drop it after the repair window
        # rather than pinning the floor forever.
        self._inflight.drop_stale(node.sim.now - self._inflight_timeout)
        node.send(node._geoproxy, ClockReport(server=node.name, floor=self._floor()))
        node.set_timer(self._interval, self._report_tick)

    def on_recover(self) -> None:
        # The crash cancelled the report timer; floors resume from the
        # retained clock state (monotone, so peers saw nothing newer).
        self.node.set_timer(self._interval, self._report_tick)

    def metadata(self) -> Dict[str, int]:
        return {**super().metadata(), "hlc_entries": len(self._hlc_of)}

    def max_skew(self) -> int:
        return self.clock.max_skew


class ClockAgent:
    """Owed to a future change that edits only the benchmark:
    ``benchmarks/suite/shims.py`` binds this name, and a change to
    ``src/`` leaves the benchmark as it is. Nothing builds it: every
    site's geo-proxy hosts the clock role (:class:`GeoClockCore`), a
    single site's included."""

    __slots__ = ()


class GeoClockCore(SitePlane):
    """Clock-plane brain hosted by each site's :class:`GeoProxy`, a
    single site's included (no peers: no ships, no vectors, and the cut
    is the site's own visible horizon).

    Owns floor aggregation, the stamp-ordered ship buffer, the pending
    (received-but-not-applied) set, peer horizons, the cut, and the
    strictly stamp-ordered remote-injection queue.
    """

    __slots__ = (
        "interval",
        "_floors",
        "dc_ship",
        "dc_visible",
        "cut",
        "node_lst",
        "_ship_buf",
        "_shipped",
        "_pending_in",
        "_inject_heap",
        "_global_fifo",
        "_pending_timeout",
    )

    handles = ("on_tail_stable", "on_clock_report", "on_clock_ship", "on_stability_vector")

    def __init__(self, proxy: "GeoProxy") -> None:
        super().__init__(proxy)
        config = proxy.config
        self.interval = config.stability_interval
        self._floors = FloorTable(2.0 * config.failure_timeout)
        #: per-peer ship horizon: everything a peer stamped ≤ this has arrived
        self.dc_ship: Dict[str, HLCStamp] = {p.site: HLC_ZERO for p in proxy._peers}
        #: per-peer visible horizon (their StabilityVector.visible)
        self.dc_visible: Dict[str, HLCStamp] = {
            p.site: HLC_ZERO for p in proxy._peers
        }
        #: the global-stabilization cut (monotone)
        self.cut = HLC_ZERO
        #: last visible horizon pushed to local servers (monotone)
        self.node_lst = HLC_ZERO
        #: DC-stable local writes not yet covered by the ship horizon
        self._ship_buf: List[Tuple[_Key, RemoteUpdate]] = []
        #: (stamp, shipped_at) of local writes shipped but not yet passed
        #: by the cut — duplicate-ship suppression (repair re-announcements)
        self._shipped = StampSet()
        #: (stamp, received_at) of remote updates received but not yet
        #: tail-applied locally — the oldest caps ``visible``
        self._pending_in = StampSet()
        #: received remote updates awaiting the admission gate
        self._inject_heap: List[Tuple[_Key, RemoteUpdate]] = []
        #: (stamp, origin_put_at) of shipped local writes, stamp order —
        #: drained as the cut passes for global-stability latency samples
        self._global_fifo: Deque[Tuple[HLCStamp, float]] = deque()
        from repro.core.node import SYNC_TIMEOUT  # local: see ClockNodePlane

        self._pending_timeout = 2.0 * SYNC_TIMEOUT
        proxy.set_timer(self.interval, self._tick)

    # -- inbound control -----------------------------------------------
    def on_clock_report(self, msg: ClockReport, src: Address) -> None:
        if isinstance(msg.floor, HLCStamp):
            self._floors.update(msg.server, msg.floor, self.proxy.sim.now)

    def on_stability_vector(self, msg: StabilityVector, src: Address) -> None:
        if isinstance(msg.ship_lst, HLCStamp):
            cur = self.dc_ship.get(msg.site, HLC_ZERO)
            if msg.ship_lst > cur:
                self.dc_ship[msg.site] = msg.ship_lst
        if isinstance(msg.visible, HLCStamp):
            cur = self.dc_visible.get(msg.site, HLC_ZERO)
            if msg.visible > cur:
                self.dc_visible[msg.site] = msg.visible
        self._reeval_injections()

    def on_clock_ship(self, msg: ClockShip, src: Address) -> None:
        now = self.proxy.sim.now
        if isinstance(msg.lst, HLCStamp):
            cur = self.dc_ship.get(msg.origin_site, HLC_ZERO)
            if msg.lst > cur:
                self.dc_ship[msg.origin_site] = msg.lst
        for update in msg.updates:
            ts = update.hlc
            if not isinstance(ts, HLCStamp):
                continue
            self._pending_in.add(ts, now)
            heappush(self._inject_heap, (ts.key(), update))
        self._reeval_injections()

    def on_tail_stable(self, msg: TailStable, src: Address) -> None:
        proxy = self.proxy
        ts = msg.hlc if isinstance(msg.hlc, HLCStamp) else None
        if msg.origin_site != proxy.site:
            # A remote update finished the local chain: it no longer
            # caps our visible horizon (no GlobalAck on this plane —
            # the cut replaces the ack round).
            if ts is not None:
                self._pending_in.discard(ts.key())
            self._reeval_injections()
            return
        if ts is None:
            return
        key = ts.key()
        if key in self._shipped:
            # Repair re-stabilisation can re-announce a version.
            proxy.duplicate_ships += 1
            return
        self._shipped.add(ts, proxy.sim.now)
        if proxy.tracer is not None:
            proxy.trace("geo", "ship", msg.key, version=str(msg.version))
        update = RemoteUpdate(
            key=msg.key,
            value=msg.value,
            version=msg.version,
            stamp=msg.stamp,
            deps=msg.deps,
            origin_site=proxy.site,
            origin_put_at=msg.origin_put_at,
            hlc=ts,
        )
        heappush(self._ship_buf, (key, update))
        self._global_fifo.append((ts, msg.origin_put_at))

    # -- horizons ------------------------------------------------------
    def _local_lst(self, now: float) -> HLCStamp:
        return self._floors.local_lst(self.proxy.view.servers, now)

    def _visible(self, now: float) -> HLCStamp:
        """Every write *anywhere* stamped ≤ visible is tail-applied here.

        Three caps: local floors (local writes), the oldest pending
        remote injection (received, mid-chain), and the peers' ship
        horizons (writes that have not even arrived yet).
        """
        visible = self._local_lst(now)
        oldest = self._pending_in.oldest()
        if oldest is not None:
            below = just_below(oldest)
            if below < visible:
                visible = below
        for horizon in self.dc_ship.values():
            if horizon < visible:
                visible = horizon
        return visible

    # -- remote injection ----------------------------------------------
    def _max_dep_ts(self, update: RemoteUpdate) -> Optional[HLCStamp]:
        worst: Optional[HLCStamp] = None
        catalog = self.proxy._catalog
        site = self.proxy.site
        for dep_key, entry in update.deps.items():
            # Same-key order is enforced by stamp-ordered issuance plus
            # the proxy's per-key gate chain. Non-owned shards (partial
            # replication) never arrive here and are not waited on —
            # ships are pruned at the origin, but hand-built updates may
            # still carry such entries.
            if dep_key == update.key or entry.hlc is None:
                continue
            if not catalog.owns(site, dep_key):
                continue
            if worst is None or entry.hlc > worst:
                worst = entry.hlc
        return worst

    def _admissible(self, update: RemoteUpdate, visible: HLCStamp) -> bool:
        dep_ts = self._max_dep_ts(update)
        if dep_ts is None:
            return True
        return dep_ts <= visible

    def _reeval_injections(self) -> None:
        if not self._inject_heap:
            return
        proxy = self.proxy
        visible = self._visible(proxy.sim.now)
        heap = self._inject_heap
        while heap:
            _key, update = heap[0]
            if not self._admissible(update, visible):
                # Strict stamp order: dependencies always carry smaller
                # stamps than dependents, so the blocked minimum cannot
                # be waiting on anything queued behind it.
                break
            heappop(heap)
            # No dependency waits — this gate already held the update
            # until the visible horizon passed its deps — but the
            # proxy's per-key gate chain all the same: two same-key
            # updates must also *arrive at the head* in stamp order,
            # which the gates (plus per-link FIFO) guarantee.
            proxy._enqueue(update, False)

    # -- the per-interval control tick ---------------------------------
    def _tick(self) -> None:
        proxy = self.proxy
        now = proxy.sim.now
        local = self._local_lst(now)
        # An injection orphaned by a crash would cap visible forever;
        # repair re-stabilises the write, so lazily drop it after the
        # repair window.
        self._pending_in.drop_stale(now - self._pending_timeout)
        # 1. Ship everything at or below the local LST, stamp-ordered,
        #    one batch per peer — then the vector on the same FIFO link.
        local_key = local.key()
        batch: List[RemoteUpdate] = []
        while self._ship_buf and self._ship_buf[0][0] <= local_key:
            batch.append(heappop(self._ship_buf)[1])
        if batch and proxy._peers:
            # The catalog decides each peer's share; unpruned peers share
            # one frozen batch. A peer with no share gets nothing: the
            # vector below advances its ship horizon to ``local`` on the
            # same FIFO link, so it never waits on unsent updates.
            ship = tuple(batch)
            whole = ClockShip(origin_site=proxy.site, lst=local, updates=ship)
            for peer, share in proxy._catalog.prune(proxy._peers, ship):
                if share is ship:
                    proxy.send(peer, whole)
                else:
                    proxy.send(peer, ClockShip(origin_site=proxy.site, lst=local, updates=share))
            proxy.updates_shipped += len(batch)
        visible = self._visible(now)
        # 2. Broadcast the site's stability vector, one frozen instance.
        vector = StabilityVector(site=proxy.site, ship_lst=local, visible=visible)
        for peer in proxy._peers:
            proxy.send(peer, vector)
        # 3. Advance the cut: min over every site's visible horizon.
        cut = visible
        for horizon in self.dc_visible.values():
            if horizon < cut:
                cut = horizon
        if cut > self.cut:
            self.cut = cut
        if visible > self.node_lst:
            self.node_lst = visible
        # 4. Drive the local servers, one frozen instance for all.
        tick = ClockTick(dc_lst=self.node_lst, cut=self.cut)
        for server in proxy.view.servers:
            proxy.send(proxy.view.address_of(server), tick)
        # 5. Global-stability latency samples: the cut passed these writes.
        fifo = self._global_fifo
        while fifo and fifo[0][0] <= self.cut:
            _ts, origin_put_at = fifo.popleft()
            proxy.global_stability_samples.append(now - origin_put_at)
        # 6. Globally stable writes need no duplicate-ship suppression
        #    any more (a post-repair re-announcement re-ships, and the
        #    receiver's store drops the dominated duplicate) — pruning
        #    keeps the set sized to in-flight writes, not history.
        self._shipped.drop_through(self.cut.key())
        self._reeval_injections()
        proxy.set_timer(self.interval, self._tick)

    def cut_lag(self) -> float:
        """Seconds between now and the cut's physical component."""
        return max(0.0, self.proxy.sim.now - self.cut.physical / 1_000_000)

    def on_recover(self) -> None:
        self.proxy.set_timer(self.interval, self._tick)
