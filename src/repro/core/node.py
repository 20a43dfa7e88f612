"""The ChainReaction storage server.

One :class:`ChainNode` plays every chain role at once — it is the head
for some keys, an interior replica for others, the tail for others
still, as consistent hashing dictates. The node implements:

- **k-ack puts** — a put is applied at the head, propagated down the
  chain, and acknowledged to the client by the server at chain position
  ``k - 1``; propagation continues lazily to the tail.
- **dependency waits** — a put whose client metadata lists unstable
  dependencies is held at the head until those versions are DC-stable
  (confirmed by the dependency's chain tail), the mechanism that makes
  reads-anywhere safe for causality.
- **stability** — what is DC-stable or globally stable, and what the
  tail does when a write completes its chain, is the business of the
  node's stabilization plane (``node.plane``, see
  :mod:`repro.core.stability_plane`); the node asks it and keeps no
  stability state of its own.
- **prefix reads** — a ``GetRequest`` is served by whichever chain
  position the client chose; the ``ReadReply`` carries the server's
  position and a stability flag so the client can maintain its metadata.
- **chain repair** — on a membership change every server streams the
  records each new chain member is responsible for, and pauses
  client-facing service until it has received its peers' transfers
  (bounded by :data:`SYNC_TIMEOUT`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.membership import RingView
from repro.cluster.ring import chain_positions
from repro.cluster.server_base import RingServer
from repro.core.config import ChainReactionConfig
from repro.core.messages import (
    Ack,
    ApplyRemote,
    ChainPut,
    Deps,
    GetRequest,
    GetStable,
    PutReply,
    PutRequest,
    ReadReply,
    StableReply,
    StateTransfer,
    TransferDone,
    WaitStable,
)
from repro.core.deptable import DepSnapshot
from repro.core.stability import DepWait
from repro.core.stability_plane import plane_parts
from repro.net.network import Address, Network
from repro.sim.hlc import NO_HLC
from repro.sim.kernel import Simulator
from repro.storage.merge import ConflictResolver
from repro.storage.logstore import DurableStore
from repro.storage.store import TOMBSTONE
from repro.storage.version import VersionVector

__all__ = ["ChainNode", "COMPACTION_INTERVAL", "SYNC_TIMEOUT"]

#: upper bound (seconds) on a server's read-unavailability window while
#: chain repair streams state after a view change
SYNC_TIMEOUT = 1.0

#: how often (seconds) a durable server checks whether its log has
#: outgrown the live set and compacts it
COMPACTION_INTERVAL = 1.0

#: Shared read-only empty dependency map. ``_stable_records`` retains a
#: deps mapping per stable key, so handing out a fresh ``{}`` default on
#: every refresh pinned thousands of identical empty dicts.
_NO_DEPS: Deps = {}


class ChainNode(RingServer):  # repro: lint-ok(slots) — unslotted Actor base keeps the __dict__; one instance per server, not per key
    """A ChainReaction server: head/replica/tail for its share of chains."""

    #: The data operations. A ``wait-stable`` is not one: a stability
    #: query is a version comparison, and charging it a service slot
    #: would tax every dependency-carrying put with capacity it does not
    #: consume.
    SERVICED_TYPES = frozenset(
        {"get-stable", "get-request", "put-request", "apply-remote", "chain-put", "state-transfer"}
    )

    #: answers to this head's own dependency waits
    on_ack = RingServer.take_reply

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        config: ChainReactionConfig,
        resolver: Optional[ConflictResolver] = None,
    ) -> None:
        super().__init__(
            sim, network, site, name, initial_view, resolver,
            service_time=config.service_time,
        )
        self.config = config
        #: which sites own which keys (:mod:`repro.cluster.placement`)
        self.placement = config.placement()
        if config.durable_storage:
            # FAWN-KV-style log-structured datastore: survives crashes
            # that wipe memory; compaction bounds log growth.
            self.store = DurableStore(resolver)
            self.set_timer(COMPACTION_INTERVAL, self._compaction_tick)
        self.syncing = False
        #: where a geo deployment's tails announce DC-stable writes
        self._geoproxy = Address(site, "geoproxy")
        #: newest DC-stable record, with the dependency list of the write
        #: that produced it, of a key whose live record is not stable yet
        #: (a shadow) — the unit served to causally consistent snapshot
        #: reads (multi_get)
        self._stable_records: Dict[str, Tuple[Any, Any]] = {}
        self._record_deps: Dict[str, Deps] = {}
        self._sync_epoch = initial_view.epoch
        self._transfer_pending: Set[str] = set()
        self._done_received: Set[Tuple[int, str]] = set()
        # counters surfaced by the harness
        self.puts_served = 0
        self.gets_served = 0
        self.remote_applies = 0
        self.dep_waits = 0
        self.dep_wait_timeouts = 0
        self.rejected_ops = 0
        self.forced_sync_exits = 0
        #: the stabilization plane (config.stability): every stability
        #: decision this node makes routes through it, and the messages
        #: only that plane sends are handled by it. Constructed last — a
        #: plane may arm its timers immediately.
        self.plane = plane_parts(config).server(self)

    # ------------------------------------------------------------------
    # client puts (head role)
    # ------------------------------------------------------------------
    def on_put_request(self, msg: PutRequest, src: Address) -> None:
        error = self._put_admission_error(msg.key)
        if error is not None:
            self.rejected_ops += 1
            if msg.reply_to is not None:
                self.send(
                    msg.reply_to,
                    PutReply(request_id=msg.request_id, key=msg.key, ok=False, error=error),
                )
            return
        self.trace("put", "received", msg.key, deps=len(msg.deps))
        self._serve_put(msg)

    def _put_admission_error(self, key: str) -> Optional[str]:
        if self.syncing:
            return "syncing"
        if not self.placement.owns(self.site, key):
            # Partial replication: this whole site doesn't hold the
            # key's shard — the client must forward to an owner DC.
            return "not-responsible-shard"
        pos = chain_positions(self.chain_for(key), self.name)
        if pos is None:
            return "not-responsible"
        if pos != 0:
            return "not-head"
        return None

    def _serve_put(self, msg: PutRequest) -> None:
        """Hold the put until its dependencies are DC-stable, then apply."""
        unresolved = self.plane.unresolved_deps(msg)
        if unresolved:
            self.dep_waits += 1
            self.trace("put", "dep-wait", msg.key, waiting_on=len(unresolved))
            _HeldPut(self, msg, unresolved)
        else:
            self._apply_put(msg)

    def _apply_put(self, msg: PutRequest) -> None:
        # Admission is re-checked at apply time, not only at arrival: a
        # view change can land between the two while the put is held for
        # its dependencies, and a no-longer-head that assigned a version
        # here would mint the same number as the new head — a split-brain
        # write under a stale epoch.
        error = self._put_admission_error(msg.key)
        if error is not None:
            self.rejected_ops += 1
            self.trace("put", "apply-rejected", msg.key, error=error)
            if msg.reply_to is not None:
                self.send(
                    msg.reply_to,
                    PutReply(request_id=msg.request_id, key=msg.key, ok=False, error=error),
                )
            return

        value = TOMBSTONE if msg.is_delete else msg.value
        # The version is assigned at apply time (not at arrival) so that
        # puts held by dependency waits serialise correctly with puts
        # that overtook them on the same key.
        version = self.store.version_of(msg.key).increment(self.site)
        # Plane metadata is minted with no yield between here and the
        # apply below: the stamp observes the put's dependencies, so a
        # dependent write always carries a strictly larger stamp.
        hlc = self.plane.stamp_put(msg)
        self.puts_served += 1
        if self.tracer is not None:
            self.trace("put", "apply-head", msg.key, version=str(version))
        self._apply_and_propagate(
            key=msg.key,
            value=value,
            version=version,
            origin_site=self.site,
            # Client snapshots are immutable (COW), so the chain shares
            # one object; a plain-dict deps payload is copied defensively.
            deps=msg.deps if isinstance(msg.deps, DepSnapshot) else dict(msg.deps),
            ack_index=self.config.ack_k - 1,
            request_id=msg.request_id,
            reply_to=msg.reply_to,
            origin_put_at=self.sim.now,
            hlc=hlc,
        )

    # ------------------------------------------------------------------
    # chain propagation
    # ------------------------------------------------------------------
    def _apply_and_propagate(
        self,
        key: str,
        value: Any,
        version: VersionVector,
        origin_site: str,
        deps: Deps,
        ack_index: int,
        request_id: int,
        reply_to: Optional[Address],
        origin_put_at: float,
        stamp: Any = None,
        hlc: Any = NO_HLC,
    ) -> None:
        """Apply a write locally and play this node's chain role for it:
        acknowledge the client if we sit at the ack position, declare
        stability if we are the tail, otherwise forward downstream.

        ``stamp`` is None on the normal path, where ``version`` is the
        write's original vector; remote re-applications of merged
        records pass the surviving stamp explicitly.
        """
        self._apply_local(key, value, version, stamp, deps, hlc)
        chain = self.chain_for(key)
        pos = chain_positions(chain, self.name)
        if pos is None:
            # A view change moved this chain away mid-flight; the repair
            # scan redistributes the record, nothing more to do here.
            return
        tail_pos = len(chain) - 1
        if ack_index >= 0 and pos == min(ack_index, tail_pos) and reply_to is not None:
            self.trace("put", "ack-client", key, position=pos)
            self.send(
                reply_to,
                PutReply(
                    request_id=request_id,
                    key=key,
                    version=version,
                    index=pos,
                    chain_len=len(chain),
                    hlc=hlc,
                ),
            )
        if pos == tail_pos:
            self.plane.tail_stabilise(
                key, value, version, deps, origin_site, origin_put_at, chain, stamp, hlc
            )
        else:
            downstream = ChainPut(
                key=key,
                value=value,
                version=version,
                origin_site=origin_site,
                deps=deps,
                position=pos + 1,
                ack_index=ack_index,
                request_id=request_id,
                reply_to=reply_to,
                origin_put_at=origin_put_at,
                hlc=hlc,
            )
            self.send(self.view.address_of(chain[pos + 1]), downstream)

    def _apply_local(self, key: str, value: Any, version: VersionVector,
                     stamp: Any, deps: Deps, hlc: Any = NO_HLC) -> None:
        """Apply to the local store, preserving the newest *stable* record
        (snapshot reads serve it even after newer unstable writes land)
        and tracking the surviving write's dependency list."""
        existing = self.store.get_record(key)
        if existing is not None and self.plane.record_is_stable(key, existing.version):
            self._stable_records[key] = (existing, self._record_deps.get(key, _NO_DEPS))
        result = self.store.apply(key, value, version, self.sim.now, stamp)
        if result.applied:
            self.plane.note_applied(key, hlc, existing)
            if result.was_conflict:
                merged = dict(self._record_deps.get(key, _NO_DEPS))
                for dep_key, entry in deps.items():
                    mine = merged.get(dep_key)
                    if mine is None or entry.version.dominates(mine.version):
                        merged[dep_key] = entry
                self._record_deps[key] = merged
            else:
                # An immutable snapshot is retained as-is — every replica
                # on the chain (and the remote site's chain, via the
                # geo-proxy) then pins the same column arrays rather than
                # its own dict copy. Mutable dicts are still copied.
                self._record_deps[key] = (
                    deps if isinstance(deps, DepSnapshot) else dict(deps)
                )
        else:
            # Stale/dominated write: the surviving record keeps its own
            # stamp, but the clock still merges (never moves backwards).
            self.plane.observe(hlc)
        self._refresh_stable_record(key)

    def record_deps(self, key: str) -> Deps:
        """The dependency list of the write that produced ``key``'s
        stored record (empty once sealed, and for a preloaded record)."""
        return self._record_deps.get(key, _NO_DEPS)

    def _refresh_stable_record(self, key: str) -> None:
        """Drop the shadow entry once the live record is itself stable.

        ``_stable_records`` only materialises a (record, deps) pair while
        a newer *unstable* write shadows the stable one — the common
        steady state (live record stable, nothing in flight) is served
        lazily by :meth:`_stable_entry` from the store and dep map
        directly, so the per-key tuple is pinned only for keys actually
        in transition. A sealed key needs no pair either: its floor
        answers for the live record.
        """
        record = self.store.get_record(key)
        if record is not None and self.plane.record_is_stable(key, record.version):
            self._stable_records.pop(key, None)

    def _stable_entry(self, key: str) -> Optional[Tuple[Any, Deps]]:
        """The newest DC-stable (record, deps) pair, or None.

        Reads the shadow map first (set while an unstable write hides
        the stable record); otherwise the live record
        serves iff it is DC-stable — exactly the pair the eager refresh
        used to store.
        """
        entry = self._stable_records.get(key)
        if entry is not None:
            return entry
        record = self.store.get_record(key)
        if record is not None and self.plane.record_is_stable(key, record.version):
            return (record, self._record_deps.get(key, _NO_DEPS))
        return None

    def on_chain_put(self, msg: ChainPut, src: Address) -> None:
        self._apply_and_propagate(
            key=msg.key,
            value=msg.value,
            version=msg.version,
            origin_site=msg.origin_site,
            deps=msg.deps,
            ack_index=msg.ack_index,
            request_id=msg.request_id,
            reply_to=msg.reply_to,
            origin_put_at=msg.origin_put_at,
            hlc=msg.hlc,
        )

    # ------------------------------------------------------------------
    # reads (any chain position)
    # ------------------------------------------------------------------
    def on_get_request(self, msg: GetRequest, src: Address) -> None:
        self.send(src, self.read_reply(msg.key, msg.request_id, msg.forwarded))

    def read_reply(self, key: str, request_id: int = 0, forwarded: bool = False) -> ReadReply:
        """This chain position's answer to a read of ``key``.

        A read ``forwarded`` from a non-owner DC (via the proxy) also
        gets ``fwd_deps``: the dependency list of the write being
        served. A local reader is covered by this site's admission gates
        (dependencies on owned shards were DC-stable *here* before the
        write surfaced), but a remote reader observes the write before
        those dependencies reach *its* site — so the entries ride along
        for the reader's session to dominance-check against its own DC.
        The list is the write's (already bounded) client dep snapshot,
        not a transitive closure.
        """
        pos = self._read_position(key)
        if pos is None:
            return ReadReply(request_id=request_id, ok=False, error=self._refusal(key))
        self.gets_served += 1
        plane = self.plane
        fwd_deps = None
        if forwarded:
            deps = self._record_deps.get(key)
            if deps:
                fwd_deps = {k: e for k, e in deps.items() if k != key} or None
        record = self.store.get_record(key)
        if record is None:
            return ReadReply(
                request_id=request_id, stable=True, globally=True, index=pos,
                hlc=plane.annotate_read(key), fwd_deps=fwd_deps,
            )
        version = record.version
        dc_stable = plane.record_is_stable(key, version)
        return ReadReply(
            request_id=request_id,
            value=None if record.is_deleted else record.value,
            version=version,
            stable=dc_stable,
            globally=plane.record_is_global(key, version, dc_stable),
            index=pos,
            hlc=plane.annotate_read(key),
            fwd_deps=fwd_deps,
        )

    def _read_position(self, key: str) -> Optional[int]:
        """This server's chain position for a read of ``key``; None while
        it is syncing, or when it does not hold the key."""
        if self.syncing or not self.placement.owns(self.site, key):
            return None
        return chain_positions(self.chain_for(key), self.name)

    def _refusal(self, key: str) -> str:
        """Why this server refuses to read ``key`` now (and count it)."""
        self.rejected_ops += 1
        if self.syncing:
            return "syncing"
        if not self.placement.owns(self.site, key):
            return "not-responsible-shard"
        return "not-responsible"

    def on_get_stable(self, msg: GetStable, src: Address) -> None:
        """Serve the newest DC-stable record for ``key``, with the deps of
        the write that produced it — one leg of a causally consistent
        snapshot read. Any chain position can answer: stable versions
        are on every replica by definition."""
        key = msg.key
        request_id = msg.request_id
        if self._read_position(key) is None:
            self.send(src, StableReply(request_id=request_id, ok=False, error=self._refusal(key)))
            return
        self.gets_served += 1
        entry = self._stable_entry(key)
        if entry is None:
            self.send(src, StableReply(request_id=request_id))
            return
        record, deps = entry
        value = None if record.is_deleted else record.value
        versions = {k: e.version for k, e in deps.items()}
        self.send(src, StableReply(request_id, True, value, record.version, versions))

    # ------------------------------------------------------------------
    # stability queries (tail role)
    # ------------------------------------------------------------------
    def on_wait_stable(self, msg: WaitStable, src: Address) -> None:
        request_id = msg.request_id
        self.plane.wait_stable(msg.key, msg.version).add_callback(
            lambda _answer: self.send(src, Ack(request_id=request_id))
        )

    # ------------------------------------------------------------------
    # remote updates injected by the geo-proxy (head role)
    # ------------------------------------------------------------------
    def on_apply_remote(self, msg: ApplyRemote, src: Address) -> None:
        key = msg.key
        ok = not self.syncing and chain_positions(self.chain_for(key), self.name) == 0
        if ok:
            self.remote_applies += 1
            self._apply_and_propagate(
                key=key,
                value=msg.value,
                version=msg.version,
                origin_site=msg.origin_site,
                deps=msg.deps,
                ack_index=-1,
                request_id=0,
                reply_to=None,
                origin_put_at=msg.origin_put_at,
                stamp=msg.stamp,
                hlc=msg.hlc,
            )
        self.send(src, Ack(request_id=msg.request_id, ok=ok))

    # ------------------------------------------------------------------
    # chain repair
    # ------------------------------------------------------------------
    def handle_view_change(self, old: RingView, new: RingView) -> None:
        """Stream state to the members of every chain under the new view.

        Every server pushes each of its records to the record's other
        new-chain members (idempotent at the receiver), then signals
        completion. Client-facing service pauses until all peers'
        transfers arrive, bounded by :data:`SYNC_TIMEOUT`.
        """
        self.trace("repair", "view-change", epoch=new.epoch, members=len(new.servers))
        self._sync_epoch = new.epoch
        self.syncing = True
        self._transfer_pending = set(new.servers) - {self.name}
        self.set_timer(SYNC_TIMEOUT, self._sync_deadline, new.epoch)

        outgoing: Dict[str, List[Tuple]] = {}
        for record in self.store.all_records():
            chain = new.chain_for(record.key)
            if self.name not in chain:
                continue
            entry = self.plane.transfer_record(record)
            for server in chain:
                if server != self.name:
                    outgoing.setdefault(server, []).append(entry)
        for server in new.servers:
            if server == self.name:
                continue
            dst = new.address_of(server)
            records = tuple(outgoing.get(server, ()))
            if records:
                self.send(dst, StateTransfer(records=records, epoch=new.epoch))
            self.send(dst, TransferDone(epoch=new.epoch, sender=self.name))
        self._maybe_finish_sync()

    def on_state_transfer(self, msg: StateTransfer, src: Address) -> None:
        for rec in msg.records:
            # (key, value, version, stable, stamp[, hlc[, deps]]): see
            # StabilityPlane._transfer_entry
            key, value, version, stable_version, stamp = rec[:5]
            hlc = rec[5] if len(rec) > 5 else NO_HLC
            deps = rec[6] if len(rec) > 6 else _NO_DEPS
            self._apply_local(key, value, version, stamp, deps, hlc)
            self.plane.note_transferred(key, stable_version)
            chain = self.chain_for(key)
            pos = chain_positions(chain, self.name)
            if pos is not None and pos == len(chain) - 1:
                record = self.store.get_record(key)
                if record is not None and self.plane.needs_restabilise(key, record.version):
                    # Writes stranded mid-chain by the failure reach the new
                    # tail here; stabilising them re-opens reads-anywhere and
                    # (in geo mode) re-ships anything the old tail never sent,
                    # with the dependencies its client named.
                    self.plane.tail_stabilise(
                        key,
                        record.value,
                        record.version,
                        self.record_deps(key),
                        self.site,
                        self.sim.now,
                        chain,
                        record.stamp,
                        self.plane.transfer_hlc(key),
                    )

    def on_transfer_done(self, msg: TransferDone, src: Address) -> None:
        self._done_received.add((msg.epoch, msg.sender))
        self._maybe_finish_sync()

    def _maybe_finish_sync(self) -> None:
        if not self.syncing:
            return
        missing = [
            server
            for server in sorted(self._transfer_pending)
            if (self._sync_epoch, server) not in self._done_received
        ]
        if not missing:
            self.syncing = False
            self.trace("repair", "sync-complete", epoch=self._sync_epoch)
            self._done_received = {
                item
                for item in sorted(self._done_received)
                if item[0] >= self._sync_epoch
            }

    def _compaction_tick(self) -> None:
        reclaimed = self.store.maybe_compact()
        if reclaimed:
            self.trace("storage", "compaction", reclaimed=reclaimed)
        self.set_timer(COMPACTION_INTERVAL, self._compaction_tick)

    def on_recover(self) -> None:
        self.plane.on_recover()
        if isinstance(self.store, DurableStore) and len(self.store) == 0 and len(self.store.log):
            replayed = self.store.recover_from_log()
            self.trace("storage", "log-recovery", replayed=replayed)
            # Replayed records that were stable before the crash become
            # stable again via the repair transfer that follows re-admission.
            self.set_timer(COMPACTION_INTERVAL, self._compaction_tick)
        super().on_recover()

    def _sync_deadline(self, epoch: int) -> None:
        if self.syncing and self._sync_epoch == epoch:
            # A peer died mid-repair and its TransferDone will never come;
            # resume service rather than staying unavailable.
            self.syncing = False
            self.forced_sync_exits += 1


class _HeldPut:
    """A put held at its head until its unresolved dependencies are
    DC-stable: one concurrent :class:`DepWait` each, counting down here.
    A wait that timed out lets the put through all the same; a wait that
    *failed* (this node crashed under it) drops the put, silently. Waits
    are all counted first: one may end inside its own constructor."""

    __slots__ = ("_node", "_msg", "_waits")

    def __init__(self, node: ChainNode, msg: PutRequest, unresolved: List[Tuple[str, Any]]) -> None:
        self._node = node
        self._msg = msg
        self._waits = len(unresolved)
        for dep_key, entry in unresolved:
            DepWait(node, self, dep_key, entry.version)

    def dep_done(self, stable: bool) -> None:
        if not stable:
            self._node.dep_wait_timeouts += 1
        if self._waits:
            self._waits -= 1
            if not self._waits:
                self._node._apply_put(self._msg)

    def dep_failed(self) -> None:
        self._waits = 0  # what the sibling waits report no longer matters
