"""Cluster membership: versioned ring views and the per-DC manager.

Each datacenter runs one :class:`ClusterManager` (the FAWN-KV
"front-end/management" role): servers heartbeat to it, it detects
failures by timeout, publishes a new epoch of the :class:`RingView`,
and pushes the view to the surviving servers. Client libraries pull
views on demand (and re-pull when a request hits a server that no
longer owns the key).

Views are immutable values; every component derives chain placement
locally from the view, so a view change is the *only* coordination a
reconfiguration needs.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Tuple

from repro.cluster.ring import HashRing
from repro.errors import ClusterError
from repro.net.actor import Actor
from repro.net.message import Message, wire_message
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator

__all__ = [
    "RingView",
    "ClusterManager",
    "HEARTBEAT_INTERVAL",
    "Heartbeat",
    "ViewChange",
    "GetView",
    "ViewReply",
]

_RING_CACHE: Dict[Tuple[Tuple[str, ...], int], HashRing] = {}


def _ring(servers: Tuple[str, ...], virtual_nodes: int) -> HashRing:
    key = (servers, virtual_nodes)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = HashRing(servers, virtual_nodes)
        _RING_CACHE[key] = ring
    return ring


@dataclasses.dataclass(frozen=True)
class RingView:
    """One epoch of cluster membership for a datacenter."""

    epoch: int
    site: str
    servers: Tuple[str, ...]
    chain_length: int
    virtual_nodes: int = 64

    # A view is an immutable value, so its ring, the ring's chain memo at
    # this view's length and its servers' addresses are memoised in the
    # instance ``__dict__`` by ``cached_property`` (where ``Message.wire_size``
    # is stored too): not fields, hence outside ``==``, ``hash`` and
    # ``size_bytes``. After the first read each is a plain attribute.

    @functools.cached_property
    def _hash_ring(self) -> HashRing:
        return _ring(self.servers, self.virtual_nodes)

    @functools.cached_property
    def _routed(self) -> Mapping[str, List[str]]:
        return self._hash_ring.routed(self.chain_length)

    @functools.cached_property
    def _addresses(self) -> Dict[str, Address]:
        return {}

    def ring(self) -> HashRing:
        return self._hash_ring

    def chain_for(self, key: str) -> List[str]:
        chain = self._routed.get(key)
        if chain is None:
            chain = self._hash_ring.chain_for(key, self.chain_length)
        return chain

    def addresses(self) -> List[Address]:
        return [self.address_of(s) for s in self.servers]

    def address_of(self, server: str) -> Address:
        address = self._addresses.get(server)
        if address is None:
            address = self._addresses[server] = Address(self.site, server)
        return address

    def size_bytes(self) -> int:
        return 8 + 4 + len(self.site) + sum(4 + len(s) for s in self.servers) + 8


#: seconds between two heartbeats of a server to its manager; a
#: deployment's ``failure_timeout`` must exceed it
HEARTBEAT_INTERVAL = 0.05


@wire_message
class Heartbeat(Message):
    type_name: ClassVar[str] = "heartbeat"
    server: str = ""
    epoch: int = 0


@wire_message
class ViewChange(Message):
    type_name: ClassVar[str] = "view-change"
    view: Optional[RingView] = None


@wire_message
class GetView(Message):
    """Client session → its site's manager, between two attempts of an
    operation: the current view, please."""

    type_name: ClassVar[str] = "get-view"
    request_id: int = 0


@wire_message
class ViewReply(Message):
    type_name: ClassVar[str] = "view-reply"
    request_id: int = 0
    view: Optional[RingView] = None


class ClusterManager(Actor):
    """Failure detector and view publisher for one datacenter.

    Not replicated (the paper's management plane isn't the contribution);
    its failure-detection timeout and publish path are what the fault-
    tolerance experiment (E9) exercises.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        servers: List[str],
        chain_length: int,
        failure_timeout: float = 0.25,
        virtual_nodes: int = 64,
    ):
        super().__init__(sim, network, Address(site, "manager"))
        if chain_length < 1:
            raise ClusterError(f"chain_length must be >= 1, got {chain_length}")
        if failure_timeout <= HEARTBEAT_INTERVAL:
            raise ClusterError(f"failure_timeout must exceed the heartbeat interval ({HEARTBEAT_INTERVAL} s)")
        self.site = site
        self.failure_timeout = failure_timeout
        self.view = RingView(
            epoch=1,
            site=site,
            servers=tuple(servers),
            chain_length=chain_length,
            virtual_nodes=virtual_nodes,
        )
        self._last_seen: Dict[str, float] = {s: sim.now for s in servers}
        self._view_listeners: List[Callable[[RingView], None]] = []
        self.view_changes = 0
        self.set_timer(self.failure_timeout, self._check_failures)

    # ------------------------------------------------------------------
    # observation hooks (for tests / harness)
    # ------------------------------------------------------------------
    def add_view_listener(self, fn: Callable[[RingView], None]) -> None:
        self._view_listeners.append(fn)

    # ------------------------------------------------------------------
    # heartbeats & failure detection
    # ------------------------------------------------------------------
    def on_heartbeat(self, msg: Heartbeat, src: Address) -> None:
        if msg.server in self.view.servers:
            self._last_seen[msg.server] = self.sim.now
        elif src.site == self.site and src.node == msg.server:
            # A previously-removed server is heartbeating again: it
            # recovered. Re-admit it; the view change triggers the same
            # repair path as any other membership change.
            self.add_server(msg.server)

    def _check_failures(self) -> None:
        deadline = self.sim.now - self.failure_timeout
        dead = [s for s in self.view.servers if self._last_seen.get(s, 0.0) < deadline]
        for server in dead:
            self._remove_server(server)
        self.set_timer(self.failure_timeout / 2, self._check_failures)

    def _remove_server(self, server: str) -> None:
        remaining = tuple(s for s in self.view.servers if s != server)
        if not remaining:
            raise ClusterError(f"last server {server!r} in {self.site} failed")
        self._last_seen.pop(server, None)
        self._publish(remaining)

    def add_server(self, server: str) -> None:
        """Admin operation: grow the cluster by one (already-running) server."""
        if server in self.view.servers:
            raise ClusterError(f"server {server!r} already a member")
        self._last_seen[server] = self.sim.now
        self._publish(self.view.servers + (server,))

    def _publish(self, servers: Tuple[str, ...]) -> None:
        self.view = dataclasses.replace(
            self.view, epoch=self.view.epoch + 1, servers=servers
        )
        self.view_changes += 1
        for server in servers:
            self.send(self.view.address_of(server), ViewChange(view=self.view))
        for fn in self._view_listeners:
            fn(self.view)

    # ------------------------------------------------------------------
    # view requests
    # ------------------------------------------------------------------
    def on_get_view(self, msg: GetView, src: Address) -> None:
        self.send(src, ViewReply(request_id=msg.request_id, view=self.view))
