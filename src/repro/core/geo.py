"""Geo-replication: one proxy per datacenter, on every deployment.

Every site builds its proxy, a single site's included: it hosts the
stabilization plane's per-site role, and with no peers it ships nothing.
The proxy is the only component that talks across the WAN. The local
chain tails notify it when a write becomes DC-stable; what leaves the
datacenter then is the stabilization plane's business (``proxy.plane``,
a :class:`~repro.core.stability_plane.SitePlane`). On the paper's plane
a locally originated write ships as a :class:`RemoteUpdate` (value + the
put's dependency list) to each peer DC, and a remotely originated one
is reported back to its origin with a :class:`GlobalAck`. Which peers
receive a write, with which dependency entries, the deployment's
catalog decides (:mod:`repro.cluster.placement`): every peer, whole,
under full replication.

On the receiving side, a remote update is injected into the local chain
**head** — so remote and local writes share one serialisation point per
key — but only after every dependency it carries is DC-stable locally
(when ``geo_causal_delivery`` is on). On the notices planes the proxy
answers that from its own plane, which records every ``TailStable`` the
local tails send it; it asks a dependency's tail (a ``WaitStable``) only
when no word came within one attempt. That gate is what makes a remote
reader unable to observe a write before the writes it causally depends
on; switching it off (DESIGN.md §6.4) reintroduces the anomalies that
experiment E10 counts. Each inbound update is one :class:`_RemoteApply`
in continuation form — its waits, its place in the key's order and its
injection attempts are callbacks on one object, not coroutines.

A write acknowledged DC-stable by every datacenter is **globally
stable**; the proxy at the origin records the latency of both milestones
for experiment E7.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.membership import RingView
from repro.core.config import ChainReactionConfig
from repro.core.stability import DepWait
from repro.core.stability_plane import plane_parts
from repro.core.messages import (
    RELAY_TIMEOUT,
    Ack,
    ApplyRemote,
    GetRequest,
    GetStable,
    PutReply,
    PutRequest,
    ReadReply,
    RemoteUpdate,
    StableReply,
)
from repro.errors import RequestTimeout
from repro.net.actor import Actor
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator

__all__ = ["GeoProxy"]


class GeoProxy(Actor):  # repro: lint-ok(slots) — unslotted Actor base keeps the __dict__; one instance per site
    """The site's WAN endpoint: hosts the plane's shipping half, applies
    inbound updates, serves forwarded operations."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        all_sites: Tuple[str, ...],
        initial_view: RingView,
        config: ChainReactionConfig,
    ) -> None:
        super().__init__(sim, network, Address(site, "geoproxy"))
        self.site = site
        self.config = config
        self.view = initial_view
        #: site → its proxy's address (one object per site, not per message)
        self._proxies = {s: Address(s, "geoproxy") for s in all_sites}
        self._peers = [self._proxies[s] for s in all_sites if s != site]
        #: which sites own which keys, and what each peer receives of a
        #: shipment (:mod:`repro.cluster.placement`)
        self._catalog = config.placement()
        # metrics
        self.updates_shipped = 0
        self.updates_applied = 0
        #: inbound updates given up on after ``max_retries`` injections
        self.updates_abandoned = 0
        self.duplicate_ships = 0
        # forwarded-operation service counters (partial replication): this
        # proxy acting as the owner-side entry point for remote clients
        self.forwarded_gets_served = 0
        self.forwarded_get_bytes = 0
        self.forwarded_puts_served = 0
        #: (origin_put_at→applied-at-local-head) latencies, remote side
        self.visibility_samples: List[float] = []
        #: (origin_put_at→acked-by-every-DC) latencies, origin side
        self.global_stability_samples: List[float] = []
        #: key → its newest inbound update (each parks on its predecessor's
        #: gate: FIFO per key)
        self._key_apply_tail: Dict[str, _RemoteApply] = {}
        #: updates handled since the last open-gate sweep of that table
        self._applies_since_sweep = 0
        #: the site half of the stabilization plane (config.stability):
        #: what ships when a tail reports a write DC-stable, and the
        #: handlers of the messages only that plane sends. Constructed
        #: last — a plane may arm its timers immediately.
        self.plane = plane_parts(config).site(self)

    def set_view(self, view: RingView) -> None:
        """Installed as a manager view listener by the datastore."""
        if view.epoch > self.view.epoch:
            self.view = view

    def on_recover(self) -> None:
        self.plane.on_recover()
        super().on_recover()

    # ------------------------------------------------------------------
    # inbound: apply a remote update into the local chain
    # ------------------------------------------------------------------
    def on_remote_update(self, msg: RemoteUpdate, src: Address) -> None:
        self._enqueue(msg, self.config.geo_causal_delivery and bool(msg.deps))

    def _enqueue(self, msg: RemoteUpdate, wait_deps: bool) -> None:
        # Same-key updates must be *injected* in arrival order: a
        # dependency-free write would otherwise overtake its same-key
        # predecessor and become visible before the predecessor's own
        # dependencies are satisfied here — a transitive causality leak.
        # Each update has a gate, opened once its injection has been
        # issued (after its dependency waits); the next update for the
        # key waits on that gate. Dependency waits themselves run
        # concurrently, so ordering costs no pipeline stalls.
        tail = self._key_apply_tail
        tail[msg.key] = _RemoteApply(self, msg, tail.get(msg.key), wait_deps)
        # Periodically drop gates that have already opened: an open gate
        # is behaviourally identical to no gate, so pruning is invisible
        # to ordering but keeps the table sized to in-flight keys.
        self._applies_since_sweep += 1
        if self._applies_since_sweep >= 256:
            self._applies_since_sweep = 0
            for key in [k for k, op in tail.items() if op.opened]:
                del tail[key]

    # ------------------------------------------------------------------
    # forwarded client operations (partial replication, owner side)
    # ------------------------------------------------------------------
    def on_get_request(self, msg: GetRequest, src: Address) -> None:
        """A remote client's read of a locally-owned shard, relayed to the
        local chain *head*: the head is never behind, so a forwarded read
        always observes every version this owner site has serialised —
        the property the relaxed dependency checking in
        :meth:`_RemoteApply._wait_deps` (and the planes) relies on."""
        _Relay(self, msg, src)

    def on_get_stable(self, msg: GetStable, src: Address) -> None:
        """Snapshot-read leg for a non-owned shard: the primary's stable
        record plus the full dependency list of the write that produced
        it (the primary's record deps are never pruned — it admitted the
        write straight from the client's PutRequest)."""
        _Relay(self, msg, src)

    def on_put_request(self, msg: PutRequest, src: Address) -> None:
        """A remote client's write, applied through the local chain: all
        writes to a shard funnel through its primary owner's chain, so
        one head serialises the shard no matter where the writer lives —
        version assignment, dependency waits, and stability all run
        exactly the local-client path. The head answers the proxy."""
        _Relay(self, msg, src, reply_to=self.address)

    #: the answers to relayed reads and writes, dependency waits and
    #: injections
    on_put_reply = on_read_reply = on_stable_reply = on_ack = Actor.take_reply


#: a relayed request's type → the type of its reply
_REPLY_TYPES = {GetRequest: ReadReply, GetStable: StableReply, PutRequest: PutReply}


class _Relay:
    """A forwarded request at the owner side: ``msg`` goes to the local
    chain head under the proxy's own request id (with ``changes``), and
    the head's reply goes back to the ``client`` under the client's. If
    the head does not answer in time, the client gets the reply type's
    refusal (``error`` :data:`RELAY_TIMEOUT`), and retries it."""

    __slots__ = ("_proxy", "_client", "_client_id", "_reply_type")

    def __init__(self, proxy: GeoProxy, msg: Any, client: Address, **changes: Any) -> None:
        self._proxy = proxy
        self._client = client
        self._client_id = msg.request_id
        self._reply_type = _REPLY_TYPES[type(msg)]
        view = proxy.view
        head = view.address_of(view.chain_for(msg.key)[0])
        rid = proxy._expect_reply(self, proxy.config.op_timeout, msg.type_name, head)
        proxy.send(head, dataclasses.replace(msg, request_id=rid, **changes))

    def rpc_reply(self, reply: Any) -> None:
        proxy = self._proxy
        if type(reply) is PutReply:
            proxy.forwarded_puts_served += 1
        elif reply.ok:
            proxy.forwarded_gets_served += 1
            proxy.forwarded_get_bytes += reply.wire_size
        proxy.send(self._client, dataclasses.replace(reply, request_id=self._client_id))

    def rpc_failed(self, exc: BaseException) -> None:
        # A timeout; or the proxy went down, and then sends nothing.
        self._proxy.send(
            self._client,
            self._reply_type(request_id=self._client_id, ok=False, error=RELAY_TIMEOUT),
        )


class _RemoteApply:
    """One inbound :class:`RemoteUpdate` on its way into the local chain,
    in continuation form. In order: its dependencies are DC-stable here
    (one concurrent :class:`DepWait` each, ``wait_deps``); its same-key
    predecessor's gate is open; its own gate opens — from its own event —
    and an :class:`ApplyRemote` goes to the chain head, re-resolved and
    re-sent after ``client_retry_backoff`` for up to ``max_retries``
    attempts.

    The first step runs inline, from the constructor. The gate still
    opens from its own ``call_soon`` event: the clock plane's simulated
    latencies depend on where that event falls among the instant's others.
    """

    __slots__ = ("_proxy", "_update", "_previous", "_next", "opened", "_waits", "_attempts")

    def __init__(
        self, proxy: GeoProxy, msg: RemoteUpdate, previous: Optional["_RemoteApply"],
        wait_deps: bool,
    ) -> None:
        self._proxy = proxy
        self._update = msg
        self._previous = previous
        #: the same-key successor parked on this update's gate, if any
        self._next: Optional[_RemoteApply] = None
        self.opened = False
        self._waits = 0
        self._attempts = proxy.config.max_retries
        if wait_deps:
            self._wait_deps()
        else:
            self._await_turn()

    def _wait_deps(self) -> None:
        proxy = self._proxy
        update = self._update
        catalog = proxy._catalog
        # Same-key order is already enforced by the gate chain; waiting
        # for the predecessor's DC-stability here would serialise the
        # whole chain latency per update instead of pipelining it. Under
        # partial replication, dependencies on shards this site does not
        # own are not locally checkable — and need not be: local reads of
        # those keys forward to the dep's primary owner, whose chain
        # already serialised the dependency before this write existed.
        waits = [
            (dep_key, entry.version)
            for dep_key, entry in update.deps.items()
            if dep_key != update.key and catalog.owns(proxy.site, dep_key)
        ]
        self._waits = len(waits)  # all counted first: a wait may end in its constructor
        for dep_key, version in waits:
            DepWait(proxy, self, dep_key, version)
        if not waits:
            self._await_turn()

    def dep_done(self, stable: bool) -> None:
        # Stable or timed out alike: after ``dep_wait_timeout`` the
        # update goes in anyway.
        if self._waits:
            self._waits -= 1
            if not self._waits:
                self._await_turn()

    def dep_failed(self) -> None:
        # The proxy went down under a wait and the update is lost with
        # it; what its sibling waits report no longer matters. Its gate
        # opens all the same, or the key's later updates would never go.
        if self._waits:
            self._waits = 0
            self._proxy.sim.call_soon(self._open).release()

    def _await_turn(self) -> None:
        previous, self._previous = self._previous, None
        if previous is not None and not previous.opened:
            previous._next = self
        else:
            self._issue()

    def _issue(self) -> None:
        # The gate opens exactly when this update's injection is issued
        # (first attempt) — successors may then issue theirs; per-link
        # FIFO keeps the heads applying them in order.
        self._proxy.sim.call_soon(self._open).release()
        self._inject()

    def _open(self) -> None:
        self.opened = True
        parked, self._next = self._next, None
        if parked is not None:
            parked._issue()

    def _inject(self) -> None:
        proxy = self._proxy
        if not self._attempts:
            proxy.updates_abandoned += 1
            return
        self._attempts -= 1
        update = self._update
        view = proxy.view
        head = view.address_of(view.chain_for(update.key)[0])
        # the RemoteUpdate's fields, in its order, under the request id
        proxy.ask(
            self, proxy.config.op_timeout, head, ApplyRemote, update.key, update.value,
            update.version, update.stamp, update.deps, update.origin_site, update.origin_put_at,
            update.hlc,
        )

    def rpc_reply(self, ack: Ack) -> None:
        proxy = self._proxy
        if not ack.ok:
            # Refused: the head is syncing, or not the key's head under
            # its own view. Re-resolve and re-send after the backoff.
            proxy.sim.post(proxy.config.client_retry_backoff, self._inject)
            return
        update = self._update
        proxy.updates_applied += 1
        if proxy.tracer is not None:
            proxy.trace("geo", "remote-apply", update.key, origin=update.origin_site)
        proxy.visibility_samples.append(proxy.sim.now - update.origin_put_at)

    def rpc_failed(self, exc: BaseException) -> None:
        if isinstance(exc, RequestTimeout):
            proxy = self._proxy
            proxy.sim.post(proxy.config.client_retry_backoff, self._inject)
        # else the proxy itself is down, and the update lost with it
