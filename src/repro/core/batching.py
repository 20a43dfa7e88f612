"""The ``notices+batch`` plane: the notices plane behind coalescers.

:class:`BatchedNoticesPlane` and :class:`BatchedShipping` wrap the two
halves of the notices plane (:mod:`repro.core.stability_plane`): they
route its three message streams through per-destination buffers with
flush timers instead of the wire —

- stability notifications (tail → upstream ``BulkStable`` hops),
- global-stability fan-out (``GlobalStableBatch``),
- geo shipping (``RemoteUpdateBatch`` per peer DC)

— and every server seals a key at the stability event that completes
it (:meth:`BatchedNoticesPlane._try_seal`).

A coalescer keeps one buffer per destination address. The first entry
buffered arms a single simulator timer ``flush_interval`` out; when it
fires, every destination's buffer is flushed as one message. A buffer
that reaches ``max_entries`` first is flushed eagerly on its own, so a
hot destination cannot grow an unbounded batch while waiting for the
window to close.

Everything is deterministic: buffers are plain dicts (insertion
ordered), flushes walk them in that order, and the only clock involved
is the simulator's. Crash recovery must call :meth:`Coalescer.reset` —
the actor's crash cancelled the armed timer, and the buffered entries
belong to the pre-crash lifetime.

Counters on each coalescer feed the ``protocol_stats()`` /
``repro perf --protocol`` report: ``entries_enqueued`` is what the
unbatched protocol would have sent as individual messages,
``batches_flushed`` is what actually hit the wire, and the difference
is the message count the batching layer saved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.messages import (
    BulkStable,
    GlobalStableBatch,
    RemoteUpdate,
    RemoteUpdateBatch,
    StableEntries,
)
from repro.core.stability_plane import NoticesPlane, NoticesShipping
from repro.net.network import Address
from repro.sim.kernel import ScheduledEvent
from repro.storage.version import VersionVector

if TYPE_CHECKING:
    from repro.core.geo import GeoProxy
    from repro.core.node import ChainNode

__all__ = [
    "BATCH_MAX_ENTRIES",
    "Coalescer",
    "StabilityCoalescer",
    "UpdateCoalescer",
    "BatchedNoticesPlane",
    "BatchedShipping",
]

#: per-destination buffer size that forces an eager flush before the
#: window expires: bounds both a batch's wire size and the entries a
#: buffer holds
BATCH_MAX_ENTRIES = 128


class Coalescer:
    """Base: per-destination buffers, one shared flush timer, counters."""

    __slots__ = (
        "actor",
        "flush_interval",
        "max_entries",
        "_pending",
        "_timer",
        "entries_enqueued",
        "batches_flushed",
        "eager_flushes",
    )

    def __init__(self, actor: Any, flush_interval: float, max_entries: int) -> None:
        #: the owning actor supplies timers and sends the flushed batches
        self.actor = actor
        self.flush_interval = flush_interval
        self.max_entries = max_entries
        self._pending: Dict[Address, Any] = {}
        self._timer: Optional[ScheduledEvent] = None
        self.entries_enqueued = 0
        self.batches_flushed = 0
        self.eager_flushes = 0

    # ------------------------------------------------------------------
    # flush machinery
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        if self._timer is None:
            self._timer = self.actor.set_timer(self.flush_interval, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.flush_all()

    def flush_all(self) -> None:
        """Flush every destination's buffer, in buffering order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        for dst, bucket in pending.items():
            self.batches_flushed += 1
            self._emit(dst, bucket)

    def _flush_destination(self, dst: Address) -> None:
        bucket = self._pending.pop(dst, None)
        if bucket is not None:
            self.batches_flushed += 1
            self.eager_flushes += 1
            self._emit(dst, bucket)

    def _emit(self, dst: Address, bucket: Any) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Crash recovery: drop buffers; the armed timer died with the actor."""
        self._pending.clear()
        self._timer = None

    def pending_entries(self) -> int:
        return sum(len(bucket) for bucket in self._pending.values())

    def messages_saved(self) -> int:
        """Individual sends the protocol skipped thanks to coalescing."""
        return max(0, self.entries_enqueued - self.batches_flushed)


class StabilityCoalescer(Coalescer):
    """Coalesces (key, version) stability entries per destination.

    Same-key entries for one destination merge (pointwise max), so a
    flush carries each key at most once — the bulk of the ≥5x message
    reduction on write-heavy keys comes from exactly this dedup.
    """

    __slots__ = ("_emit_entries",)

    def __init__(
        self,
        actor: Any,
        flush_interval: float,
        max_entries: int,
        emit: Callable[[Address, Tuple[Tuple[str, VersionVector], ...]], None],
    ) -> None:
        super().__init__(actor, flush_interval, max_entries)
        self._emit_entries = emit

    def add(self, dst: Address, key: str, version: VersionVector) -> None:
        bucket = self._pending.get(dst)
        if bucket is None:
            bucket = self._pending[dst] = {}
        have = bucket.get(key)
        bucket[key] = version if have is None else have.merge(version)
        self.entries_enqueued += 1
        if len(bucket) >= self.max_entries:
            self._flush_destination(dst)
        else:
            self._arm()

    def _emit(self, dst: Address, bucket: Any) -> None:
        self._emit_entries(dst, tuple(bucket.items()))


class UpdateCoalescer(Coalescer):
    """Coalesces whole payload messages per destination, order preserved.

    No dedup: successive same-key updates must all be injected at the
    receiver (in order) for the gate-chain causality argument to hold.
    """

    __slots__ = ("_emit_updates",)

    def __init__(
        self,
        actor: Any,
        flush_interval: float,
        max_entries: int,
        emit: Callable[[Address, Tuple[Any, ...]], None],
    ) -> None:
        super().__init__(actor, flush_interval, max_entries)
        self._emit_updates = emit

    def add(self, dst: Address, update: Any) -> None:
        bucket = self._pending.get(dst)
        if bucket is None:
            bucket = self._pending[dst] = []
        bucket.append(update)
        self.entries_enqueued += 1
        if len(bucket) >= self.max_entries:
            self._flush_destination(dst)
        else:
            self._arm()

    def _emit(self, dst: Address, bucket: Any) -> None:
        self._emit_updates(dst, tuple(bucket))


class BatchedNoticesPlane(NoticesPlane):  # repro: lint-ok(slots) — NoticesPlane keeps a __dict__; one per server
    """Server half: the ``ChainStable`` cascade travels as one
    :class:`BulkStable` per upstream hop per window, and a key is sealed
    (:meth:`seal`) at the stability event that leaves its stable record
    saying everything its tracker entries do. The one plane that seals."""

    handles = NoticesPlane.handles + ("on_bulk_stable", "on_global_stable_batch")
    prunes_stable_deps = True

    def __init__(self, node: "ChainNode") -> None:
        super().__init__(node)
        config = node.config
        self._coalescer = StabilityCoalescer(
            node, config.batch_flush_interval, BATCH_MAX_ENTRIES, self._send_bulk_stable
        )
        #: what :meth:`seal` vouched for, per key: the stored version,
        #: DC-stable and globally stable, until the key's next write
        self._sealed: Dict[str, VersionVector] = {}
        self._seals = 0

    def tail_stabilise(self, key: str, *rest: Any, **kw: Any) -> None:
        super().tail_stabilise(key, *rest, **kw)
        self._try_seal(key)

    def _notify_upstream(
        self, upstream: Address, key: str, version: VersionVector, position: int
    ) -> None:
        self._coalescer.add(upstream, key, version)

    def _send_bulk_stable(self, dst: Address, entries: StableEntries) -> None:
        self.node.send(dst, BulkStable(entries=entries))

    def on_bulk_stable(self, msg: BulkStable, src: Address) -> None:
        """Record a window's worth of stability entries; re-coalesce the
        upstream forward per key (chains differ between keys)."""
        for key, version in msg.entries:
            self._cascade(key, version)
            self._try_seal(key)

    def on_global_stable_batch(self, msg: GlobalStableBatch, src: Address) -> None:
        record = self.global_stability.record
        for key, version in msg.entries:
            record(key, version)
            self._try_seal(key)

    def note_applied(self, key: str, hlc: Any, replaced: Any) -> None:
        vouched = self._sealed.pop(key, None)
        if vouched is None:
            super().note_applied(key, hlc, replaced)
        else:
            self._unseal(key, vouched)

    def _try_seal(self, key: str) -> None:
        """Seal ``key`` once its stored record says every stability fact
        about it: the live DC entry covers the record (nothing newer in
        flight on the chain) with no waiter parked, and in geo mode the
        global entry covers it too.

        Dropping the record's dependency list leans on the stability
        gates: a write only becomes DC-stable after its dependencies
        are DC-stable in that DC, so a globally stable record has
        globally stable dependencies. That needs the causal-delivery
        gate, so the E10 ablation that switches it off never seals.
        """
        node = self.node
        config = node.config
        if config.is_geo and not config.geo_causal_delivery:
            return
        entry = self.stability.raw_entry(key)
        if entry is None or self.stability.has_waiters(key):
            return
        record = node.store.get_record(key)
        if record is None or not entry.dominates(record.version):
            return
        if config.is_geo:
            global_entry = self.global_stability.raw_entry(key)
            if global_entry is None or not global_entry.dominates(record.version):
                return
        self.seal(key, record.version)

    def seal(self, key: str, version: VersionVector) -> None:
        """Vouch for ``version`` of ``key`` — the stored record, DC-stable
        and globally stable — until the key's next write: the per-key
        counterpart of :meth:`mark_converged`. Both trackers drop their
        entries, and the write's dependency list goes too: a globally
        stable write has globally stable dependencies, so a snapshot cut
        needs no floors from them any more. Not under partial
        replication: there a write is globally stable once its shard's
        owner DCs hold it, which says nothing of its dependencies at any
        other DC, so a forwarded read must still hand the list on
        (``fwd_deps``)."""
        node = self.node
        self._sealed[key] = version
        self.stability.drop_entry(key)
        self.global_stability.drop_entry(key)
        if not node.config.is_partial:
            node._record_deps.pop(key, None)
        self._seals += 1
        if node.tracer is not None:
            node.trace("gc", "sealed", key, version=str(version))

    def _floor(self, key: str) -> VersionVector:
        """The key's sealed version if it has one, else the converged floor."""
        sealed = self._sealed.get(key)
        return NoticesPlane._floor(self, key) if sealed is None else sealed

    def metadata(self) -> Dict[str, int]:
        # a sealed version stays until the key's next write
        return {**super().metadata(), "global_floor_entries": len(self._sealed), "keys_sealed": self._seals}

    def on_recover(self) -> None:
        # The crash cancelled the armed flush timer and the buffered
        # entries belong to the pre-crash lifetime; start clean.
        self._coalescer.reset()

    def coalescers(self) -> Dict[str, Any]:
        return {"stability": self._coalescer}


class BatchedShipping(NoticesShipping):
    """Site half: one :class:`RemoteUpdateBatch` per peer and one
    :class:`GlobalStableBatch` per destination per window."""

    __slots__ = ("_updates", "_globals")

    handles = NoticesShipping.handles + ("on_remote_update_batch", "on_global_stable_batch")

    def __init__(self, proxy: "GeoProxy") -> None:
        super().__init__(proxy)
        config = proxy.config
        self._updates = UpdateCoalescer(
            proxy, config.batch_flush_interval, BATCH_MAX_ENTRIES, self._send_update_batch
        )
        self._globals = StabilityCoalescer(
            proxy, config.batch_flush_interval, BATCH_MAX_ENTRIES, self._send_global_batch
        )

    def _ship(self, peer: Address, update: RemoteUpdate) -> None:
        self._updates.add(peer, update)

    def _send_update_batch(self, dst: Address, updates: Tuple[RemoteUpdate, ...]) -> None:
        self.proxy.send(dst, RemoteUpdateBatch(updates=updates))

    def on_remote_update_batch(self, msg: RemoteUpdateBatch, src: Address) -> None:
        """Unpack a coalesced shipment; in-batch order is arrival order."""
        proxy = self.proxy
        for update in msg.updates:
            proxy.on_remote_update(update, src)

    def _announce_global(self, peers: List[Address], key: str, version: VersionVector) -> None:
        view = self.proxy.view
        for peer in peers:
            self._globals.add(peer, key, version)
        for server in view.chain_for(key):
            self._globals.add(view.address_of(server), key, version)

    def _send_global_batch(self, dst: Address, entries: StableEntries) -> None:
        # Peer proxies re-fan the entries to their own chains; local
        # chain members consume them directly.
        fan_out = dst.node == "geoproxy"
        self.proxy.send(dst, GlobalStableBatch(entries=entries, fan_out=fan_out))

    def on_global_stable_batch(self, msg: GlobalStableBatch, src: Address) -> None:
        """Peer-proxy side of the batched fan-out: regroup per chain member.

        Entries arrive grouped by *origin* proxy; each local server only
        cares about the keys it replicates, so the batch is re-bucketed
        by chain membership and forwarded immediately (no second flush
        window — the WAN hop already paid the batching latency).
        """
        if not msg.fan_out:
            return
        proxy = self.proxy
        buckets: Dict[Address, Dict[str, VersionVector]] = {}
        for key, version in msg.entries:
            for server in proxy.view.chain_for(key):
                addr = proxy.view.address_of(server)
                bucket = buckets.setdefault(addr, {})
                have = bucket.get(key)
                bucket[key] = version if have is None else have.merge(version)
        for addr, bucket in buckets.items():
            proxy.send(addr, GlobalStableBatch(entries=tuple(bucket.items())))

    def on_recover(self) -> None:
        self._updates.reset()
        self._globals.reset()

    def coalescers(self) -> Dict[str, Any]:
        return {"shipping": self._updates, "global": self._globals}
