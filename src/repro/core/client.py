"""The ChainReaction client library.

This is where causal+ becomes cheap: instead of shipping dependency
graphs with every operation (COPS-style), the client keeps a small table
of **unstable** versions it has observed — ``key → (version, deepest
chain index known to hold it)`` — and

- routes each read to a chain position guaranteed to hold everything
  the session depends on (any position for keys with no entry, i.e.
  whose observed versions are DC-stable),
- attaches the table to each put so the head can hold the write until
  those versions stabilise,
- **collapses** the table to just the new write after a put succeeds:
  the write transitively covers everything before it.

Entries disappear as soon as a read reports the version stable, so in
steady state the table stays tiny — the effect measured by experiment E8.

Robustness (the E9/fault-campaign story) lives in the retry layer the
session inherits from :class:`~repro.cluster.client_base.RetryingSession`:
bounded attempts under a per-operation deadline, seeded-jitter
exponential backoff, and ring-view re-resolution between attempts. On
top of that this client adds a **degraded read mode**: when the chain
prefix that is guaranteed to hold a session's observed version stays
unreachable, the session probes the remaining replicas and — rather
than raising — returns whatever version they serve, flagged
``GetResult.degraded=True`` (the returned value may predate versions
the session has already seen). Campaign drivers account such reads
separately; disable with ``config.degraded_reads=False``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.api import GetResult, PutResult, SnapshotResult
from repro.cluster.client_base import RetryingOp, RetryingSession
from repro.core.deptable import DepSnapshot, DepTable
from repro.core.messages import (
    RELAY_TIMEOUT,
    DepEntry,
    GetRequest,
    GetStable,
    PutReply,
    PutRequest,
    ReadReply,
    StableReply,
)
from repro.errors import RequestTimeout
from repro.net.network import Address
from repro.sim.hlc import NO_HLC, hlc_or_none
from repro.sim.process import Future, all_of
from repro.storage.version import intern_str

__all__ = ["ChainClientSession", "DEGRADED_READ_AFTER"]

#: failed attempts after which a read may probe beyond its
#: dependency-safe prefix (or a forwarded read rotate to a backup owner)
DEGRADED_READ_AFTER = 2


class ChainClientSession(RetryingSession):  # repro: lint-ok(slots) — unslotted Actor base keeps the __dict__; one instance per client
    """One sequential client of a ChainReaction deployment."""

    def __init__(self, *args: Any, prunes_stable_deps: bool, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: columnar key → (version, chain index) table; see repro.core.deptable
        self._deps = DepTable()
        #: drop a dependency once a read reports it globally stable:
        #: ``collapse_deps_on_put``, or a plane that says it prunes them
        self._drop_global_deps = self.config.collapse_deps_on_put or prunes_stable_deps
        #: which sites own which keys: a key the local site does not own
        #: is forwarded to an owner (:mod:`repro.cluster.placement`)
        self._placement = self.config.placement()
        #: per-attempt deadline for forwarded ops: one WAN round trip on
        #: top of the owner site's own service budget
        self._forward_timeout = (
            self.config.op_timeout + 4 * self.config.wan_median
        )
        #: owner site → its geo proxy's address, built on first forward
        self._owner_proxies: Dict[str, Address] = {}
        # observability: forwarded-operation counters + latency samples
        self.forwarded_gets = 0
        self.forwarded_puts = 0
        self.forward_latency_samples: List[float] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def get(self, key: str) -> Future:
        self._check_open()
        # Interned at every API boundary: records, dep-table columns,
        # and stability entries all end up holding this exact object.
        key = intern_str(key)
        owners = self._forward_owners(key)
        op = _GetOp(self, key) if owners is None else _ForwardGetOp(self, key, owners)
        op._try()
        return op

    def put(self, key: str, value: Any) -> Future:
        return self._write(key, value, False)

    def delete(self, key: str) -> Future:
        return self._write(key, None, True)

    def _write(self, key: str, value: Any, is_delete: bool) -> Future:
        self._check_open()
        key = intern_str(key)
        owners = self._forward_owners(key)
        op: RetryingOp
        if owners is None:
            op = _PutOp(self, key, value, is_delete)
        else:
            op = _ForwardPutOp(self, key, value, is_delete, owners)
        op._try()
        return op

    def metadata_bytes(self) -> int:
        return self._deps.size_bytes()

    def metadata_entries(self) -> int:
        return len(self._deps)

    def dependency_table(self) -> Dict[str, DepEntry]:
        """Copy of the session's current causality metadata (for tests/E8)."""
        return self._deps.as_dict()

    # ------------------------------------------------------------------
    # partial replication: owner routing
    # ------------------------------------------------------------------
    def _forward_owners(self, key: str) -> Optional[Tuple[str, ...]]:
        """Owner sites to forward ``key``'s operations to, or None when
        the local site owns the key (every key, under full replication)."""
        if self._placement.owns(self.site, key):
            return None
        return self._placement.owners_for(key)

    def _owner_proxy(self, site: str) -> Address:
        proxy = self._owner_proxies.get(site)
        if proxy is None:
            proxy = self._owner_proxies[site] = Address(site, "geoproxy")
        return proxy

    def _merge_forward_deps(self, reply: ReadReply) -> None:
        """Adopt the dependency list riding on a forwarded read.

        The serving DC admitted the write against *its* stability, not
        ours; each entry becomes a session dependency (at conservative
        chain index 0) so follow-up local reads dominance-check against
        versions that may still be in flight towards this site.
        """
        fwd = reply.fwd_deps
        if not fwd:
            return
        for dep_key, entry in fwd.items():
            have = self._deps.version_for(dep_key)
            if have is None or entry.version.dominates(have):
                self._deps.set(dep_key, entry.version, 0, entry.hlc)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read_target_index(self, chain_len: int, key: str, force_head: bool) -> int:
        """Pick the chain position to read from.

        With prefix reads enabled, the choice is uniform over the prefix
        known to hold the session's observed version — the whole chain
        when that version is stable. The uniform choice is what spreads
        read load across all R replicas (experiment E1).
        """
        if force_head:
            return 0
        if not self.config.allow_prefix_reads:
            return chain_len - 1
        index = self._deps.index_for(key)
        bound = chain_len - 1 if index is None else min(index, chain_len - 1)
        return self._rng.randrange(bound + 1)  # randint(0, bound) minus its frame: same draw

    def _note_observed(self, key: str, reply: ReadReply) -> None:
        version = reply.version
        # Clock plane: carry the write's HLC stamp into the dep table so
        # future puts ship it; None on the notices plane (zero bytes).
        hlc = None if reply.hlc is NO_HLC else reply.hlc
        if reply.globally:
            # Globally stable (== DC-stable in a single-DC deployment):
            # every replica everywhere serves it, so it constrains nothing.
            if self._drop_global_deps:
                # A sealing plane prunes dominated entries even in the
                # accumulate-forever ablation mode: a globally stable
                # version constrains no read and no remote delivery, so
                # keeping it only inflates the table the GC is bounding.
                self._deps.pop(key, None)
            else:
                self._deps.set(key, version, reply.index, hlc)
            return
        if reply.stable:
            # DC-stable but not yet globally: any *local* replica may
            # serve reads, but the entry must survive to ride along on
            # puts — remote DCs still need the dependency.
            index = len(self.view.chain_for(key)) - 1
        else:
            have = self._deps.version_for(key)
            if have is not None and have == version:
                # Same version seen again: keep the deepest known position.
                known = self._deps.index_for(key)
                index = reply.index if known is None else max(known, reply.index)
            else:
                index = reply.index
        self._deps.set(key, version, index, hlc)

    # ------------------------------------------------------------------
    # snapshot reads (multi_get)
    # ------------------------------------------------------------------
    def multi_get(self, keys: Iterable[str]) -> Future:
        """Causally consistent snapshot of several keys.

        Built on DC-stability: every key's newest *stable* version is
        fetched, together with the dependency list of the write that
        produced it. Because a stable write's dependencies were stable
        before it became visible, the per-key latest-stable cut is
        causally closed — except for writes that stabilise *between* the
        individual reads. Those are caught by validating each result
        against the dependency floors of the others and re-reading the
        keys that fall short (stability is monotone, so a re-read always
        satisfies the floor); in practice one extra round suffices.
        """
        self._check_open()
        return _Snapshot(self, list(keys))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _record_put(self, key: str, reply: PutReply, stable: bool) -> None:
        hlc = hlc_or_none(reply.hlc)
        if self.config.collapse_deps_on_put:
            # The new write causally covers everything this session did
            # before it — the table collapses to a single entry (or none,
            # if k == R made the write immediately stable in a single-DC
            # deployment; geo deployments keep the entry until a read
            # reports it globally stable, because remote DCs still need
            # the dependency).
            self._deps.clear()
            if not stable or self.config.is_geo:
                index = len(self.view.chain_for(key)) - 1 if stable else reply.index
                self._deps.set(key, reply.version, index, hlc)
        else:
            # Ablation mode: accumulate forever (measured in E8).
            self._deps.set(key, reply.version, reply.index, hlc)

    #: the answers to this session's gets, puts and snapshot legs
    on_put_reply = on_read_reply = on_stable_reply = RetryingSession.take_reply


class _GetOp(RetryingOp):
    """A get of a locally-owned key: per attempt, a ``GetRequest`` to a
    chain position the session's metadata allows under a fresh request
    id, answered by a ``ReadReply`` straight back. The attempt waits in
    the session's deadline table, as a ``_PutOp``'s does."""

    __slots__ = ("_force_head", "_probe_deep", "_served_by")

    _session: ChainClientSession

    def __init__(self, session: ChainClientSession, key: str) -> None:
        super().__init__(session, "get", key)
        self._force_head = False

    def _try(self) -> None:
        session = self._session
        config = session.config
        key = self._key
        view = session.view
        chain = view.chain_for(key)
        # Degraded probe: after the preferred prefix (and the head
        # fallback) kept failing, any replica is fair game — the answer
        # may be stale, and is flagged as such in rpc_reply.
        probe_deep = self._probe_deep = (
            config.degraded_reads
            and self._attempt >= DEGRADED_READ_AFTER
            and len(chain) > 1
        )
        if probe_deep:
            index = session._rng.randrange(len(chain))
        else:
            index = session._read_target_index(len(chain), key, self._force_head)
        served_by = self._served_by = chain[index]
        target = view.address_of(served_by)
        rid = session._open_request(self, config.op_timeout, "get", target)
        if rid:
            session.send(target, GetRequest(request_id=rid, key=key))

    def rpc_reply(self, reply: ReadReply) -> None:
        if not reply.ok:
            # syncing / not responsible: refresh and retry
            self._retry()
            return
        session = self._session
        key = self._key
        version = reply.version
        observed = session._deps.version_for(key)
        behind = observed is not None and not version.dominates(observed)
        if behind:
            if not self._probe_deep:
                # The server lost chain positions in a reconfiguration and
                # does not hold the version this session already observed;
                # fall back to the head, which is never behind.
                self._force_head = True
                self._retry()
                return
            # The replica is behind this session's observed version and
            # nothing better is reachable: serve it degraded. The
            # dependency table is left untouched — a degraded read must
            # not regress what the session is known to depend on.
            session.degraded_reads += 1
        else:
            # Looked up on the instance every time: the invariant monitor
            # replaces _note_observed per session after construction.
            session._note_observed(key, reply)
        self.set_result(
            GetResult(key, reply.value, version, reply.stable, self._served_by, degraded=behind)
        )


class _PutOp(RetryingOp):
    """A put or delete of a locally-owned key: per attempt, a
    ``PutRequest`` to the chain head under a fresh request id, answered
    by a ``PutReply`` straight from the k-th server. The attempt waits in
    the session's deadline table like any request, so it times out,
    crashes and closes the same way."""

    __slots__ = ("_new_value", "_is_delete", "_deps")

    _session: ChainClientSession
    _deps: Optional[DepSnapshot]
    #: what ``PutResult.acked_by`` puts before the acking chain index
    _acked_prefix = ""

    def __init__(self, session: ChainClientSession, key: str, value: Any, is_delete: bool) -> None:
        super().__init__(session, "delete" if is_delete else "put", key)
        self._new_value = value
        self._is_delete = is_delete
        self._deps = None

    def _try(self) -> None:
        session = self._session
        deps = self._deps
        if deps is None:
            # Taken at the first attempt and shared by every retry. The
            # same-key entry rides along too: locally it is subsumed by
            # chain order, but remote DCs need it for *transitive*
            # causality — the new write dominates its predecessor, so
            # without the entry it could become visible remotely before
            # the predecessor's own dependencies have arrived.
            deps = self._deps = session._deps.snapshot()
        target, request_id = self._open()
        if request_id:
            session.send(target, PutRequest(
                request_id=request_id,
                key=self._key,
                value=self._new_value,
                deps=deps,
                reply_to=session.address,
                is_delete=self._is_delete,
            ))

    def _open(self) -> Tuple[Address, int]:
        """The attempt's destination and request id (0: send nothing)."""
        session = self._session
        view = session.view
        head = view.address_of(view.chain_for(self._key)[0])
        return head, session._open_request(self, session.config.op_timeout, "put", head)

    def rpc_reply(self, reply: PutReply) -> None:
        if not reply.ok:
            # syncing / not-head / not-responsible: refresh and retry
            self._retry()
            return
        stable = reply.index >= reply.chain_len - 1
        self._session._record_put(self._key, reply, stable)
        acked_by = self._acked_prefix + str(reply.index)
        self.set_result(
            PutResult(key=self._key, version=reply.version, stable=stable, acked_by=acked_by)
        )


class _ForwardGetOp(RetryingOp):
    """A get of a non-locally-owned key: per attempt, one forwarded
    ``GetRequest`` to an owner DC's proxy, which relays it to its head.

    Sticky to the primary owner — the chain every write of the shard
    serialises through, whose head is never behind. After
    ``DEGRADED_READ_AFTER`` failed attempts the session rotates through
    backup owners; a backup may trail the primary, so a non-dominating
    answer from one is served flagged degraded (PR 3 taxonomy) rather
    than retried forever.
    """

    __slots__ = ("_owners", "_failover", "_site", "_sent_at")

    _session: ChainClientSession

    def __init__(self, session: ChainClientSession, key: str, owners: Tuple[str, ...]) -> None:
        super().__init__(session, "get", key)
        self._owners = owners

    def _try(self) -> None:
        session = self._session
        config = session.config
        owners = self._owners
        failover = self._failover = (
            config.degraded_reads
            and self._attempt >= DEGRADED_READ_AFTER
            and len(owners) > 1
        )
        site = self._site = owners[self._attempt % len(owners)] if failover else owners[0]
        self._sent_at = session.sim.now
        proxy = session._owner_proxy(site)
        session.ask(self, session._forward_timeout, proxy, GetRequest, self._key, True)

    def rpc_reply(self, reply: ReadReply) -> None:
        if not reply.ok:
            # refused by the owner's head, or it did not answer its proxy
            self._retry()
            return
        session = self._session
        key = self._key
        session.forwarded_gets += 1
        session.forward_latency_samples.append(session.sim.now - self._sent_at)
        version = reply.version
        observed = session._deps.version_for(key)
        behind = observed is not None and not version.dominates(observed)
        if behind:
            if not self._failover:
                self._retry()
                return
            # Behind what this session already saw and the primary is
            # unreachable: serve it, flagged. The dep table is left
            # untouched (degraded reads must not regress known
            # dependencies).
            session.degraded_reads += 1
        else:
            session._merge_forward_deps(reply)
            session._note_observed(key, reply)
        self.set_result(
            GetResult(
                key, reply.value, version, reply.stable, f"{self._site}/geoproxy", degraded=behind
            )
        )


class _ForwardPutOp(_PutOp):
    """A put or delete of a non-locally-owned key: per attempt, the
    ``PutRequest`` a local head would get, to the primary owner's proxy,
    which runs it through its local chain.

    Always the primary — funnelling every writer of a shard through one
    chain is what keeps per-shard writes totally ordered without cross-DC
    conflict resolution on the common path.
    """

    __slots__ = ("_proxy", "_acked_prefix", "_sent_at")

    def __init__(
        self, session: ChainClientSession, key: str, value: Any, is_delete: bool,
        owners: Tuple[str, ...],
    ) -> None:
        super().__init__(session, key, value, is_delete)
        self._proxy = session._owner_proxy(owners[0])
        self._acked_prefix = f"{owners[0]}:"

    def _open(self) -> Tuple[Address, int]:
        session = self._session
        self._sent_at = session.sim.now
        proxy = self._proxy
        return proxy, session._open_request(self, session._forward_timeout, "forward_put", proxy)

    def rpc_reply(self, reply: PutReply) -> None:
        if reply.error == RELAY_TIMEOUT:
            # the owner's head did not answer its proxy: no forwarded reply
            self._retry()
            return
        session = self._session
        session.forwarded_puts += 1
        session.forward_latency_samples.append(session.sim.now - self._sent_at)
        super().rpc_reply(reply)


class _GetStableOp(RetryingOp):
    """One leg of a snapshot read: the newest DC-stable record of one key
    with the dependency list of the write that produced it. A locally
    owned key is read from any replica; a non-owned one from the primary
    owner, whose stable records carry their full, never-pruned deps —
    keeping the snapshot's mutual-consistency floors complete."""

    __slots__ = ("_owners",)

    _session: ChainClientSession

    def __init__(self, session: ChainClientSession, key: str) -> None:
        super().__init__(session, "get_stable", key)
        self._owners = session._forward_owners(key)

    def _try(self) -> None:
        session = self._session
        key = self._key
        if self._owners is not None:
            proxy = session._owner_proxy(self._owners[0])
            session.ask(self, session._forward_timeout, proxy, GetStable, key)
            return
        view = session.view
        chain = view.chain_for(key)
        # Stable versions live on every replica: load-balance freely.
        target = view.address_of(chain[session._rng.randrange(len(chain))])
        session.ask(self, session.config.op_timeout, target, GetStable, key)

    def rpc_reply(self, reply: StableReply) -> None:
        if not reply.ok:
            # syncing / not responsible, or the owner's head did not
            # answer its proxy: refresh and retry
            self._retry()
            return
        if self._owners is not None:
            self._session.forwarded_gets += 1
        self.set_result(reply)


class _Snapshot(Future):
    """A ``multi_get`` in rounds: one :class:`_GetStableOp` per pending
    key, joined by ``all_of``; each round's callback checks the
    mutual-consistency floors and either resolves or reads the keys that
    fell short again, for at most ``MAX_ROUNDS`` rounds."""

    MAX_ROUNDS = 8

    __slots__ = ("_session", "_keys", "_results", "_pending", "_rounds")

    def __init__(self, session: ChainClientSession, keys: List[str]) -> None:
        super().__init__(session.sim)
        self._session = session
        self._keys = keys
        self._results: Dict[str, StableReply] = {}
        self._rounds = 0
        self._read(list(dict.fromkeys(keys)))

    def _read(self, pending: List[str]) -> None:
        self._rounds += 1
        self._pending = pending
        reads = []
        for key in pending:
            op = _GetStableOp(self._session, key)
            op._try()
            reads.append(op)
        all_of(self._sim, reads).add_callback(self._round_done)

    def _round_done(self, round_: Future) -> None:
        if round_.failed():
            self.set_exception(round_.exception())  # type: ignore[arg-type]
            return
        results = self._results
        results.update(zip(self._pending, round_.result()))
        # Mutual-consistency floors: every returned write's deps that
        # point at other snapshot keys must be covered by what we return
        # for those keys.
        floors: Dict[str, Any] = {}
        for reply in results.values():
            for dep_key, dep_version in reply.deps.items():
                if dep_key in results:
                    current = floors.get(dep_key)
                    floors[dep_key] = dep_version if current is None else current.merge(dep_version)
        pending = [
            key for key, floor in floors.items() if not results[key].version.dominates(floor)
        ]
        keys = self._keys
        if not pending:
            self.set_result(
                SnapshotResult(
                    values={key: results[key].value for key in keys},
                    versions={key: results[key].version for key in keys},
                    rounds=self._rounds,
                )
            )
        elif self._rounds < self.MAX_ROUNDS:
            self._read(pending)
        else:
            self._session.failed_ops += 1
            self.set_exception(
                RequestTimeout(
                    f"snapshot over {len(keys)} keys did not stabilise in {self.MAX_ROUNDS} rounds"
                )
            )
