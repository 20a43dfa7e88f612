"""Shared behaviour for ring-placed storage servers.

Every protocol's server — ChainReaction's and the baselines' — stores
records in a :class:`~repro.storage.store.VersionedStore`, heartbeats to
the datacenter's :class:`~repro.cluster.membership.ClusterManager`, and
tracks the current :class:`~repro.cluster.membership.RingView`. This
base class owns those mechanics; protocol subclasses override
:meth:`on_view_change` for their reconfiguration/repair logic and add
their own message handlers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.cluster.membership import Heartbeat, RingView, ViewChange
from repro.cluster.ring import chain_positions
from repro.errors import NotResponsibleError
from repro.net.actor import Actor
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.storage.merge import ConflictResolver, stamp_of
from repro.storage.store import Record, VersionedStore
from repro.storage.version import VersionVector, intern_str

__all__ = ["RingServer", "install_converged"]


class RingServer(Actor):
    """A storage server placed on the consistent-hash ring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        resolver: Optional[ConflictResolver] = None,
        service_time: float = 0.0,
    ):
        super().__init__(sim, network, Address(site, name))
        self.site = site
        self.name = name
        self.service_time = service_time
        self.view = initial_view
        self.store = VersionedStore(resolver)
        self._manager = Address(site, "manager")
        self._heartbeat_interval = 0.05
        self._start_heartbeats()

    # ------------------------------------------------------------------
    # heartbeating
    # ------------------------------------------------------------------
    def _start_heartbeats(self) -> None:
        self.set_timer(self._heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self.send(self._manager, Heartbeat(server=self.name, epoch=self.view.epoch))
        self.set_timer(self._heartbeat_interval, self._heartbeat_tick)

    def on_recover(self) -> None:
        self._start_heartbeats()

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def chain_for(self, key: str) -> List[str]:
        return self.view.chain_for(key)

    def my_position(self, key: str) -> int:
        """This server's chain index for ``key`` (0 = head).

        Raises :class:`NotResponsibleError` if the server is not in the
        key's chain under its current view — a stale-routing signal the
        client library reacts to by refreshing its view.
        """
        pos = chain_positions(self.chain_for(key), self.name)
        if pos is None:
            raise NotResponsibleError(
                f"{self.address} not in chain for {key!r} at epoch {self.view.epoch}"
            )
        return pos

    def is_head(self, key: str) -> bool:
        return self.my_position(key) == 0

    def is_tail(self, key: str) -> bool:
        return self.my_position(key) == len(self.chain_for(key)) - 1

    def successor(self, key: str) -> Optional[Address]:
        """Next server down the chain, or None at the tail."""
        chain = self.chain_for(key)
        pos = self.my_position(key)
        if pos == len(chain) - 1:
            return None
        return self.view.address_of(chain[pos + 1])

    def predecessor(self, key: str) -> Optional[Address]:
        chain = self.chain_for(key)
        pos = self.my_position(key)
        if pos == 0:
            return None
        return self.view.address_of(chain[pos - 1])

    # ------------------------------------------------------------------
    # view changes
    # ------------------------------------------------------------------
    def on_view_change(self, msg: ViewChange, src: Address) -> None:
        assert msg.view is not None
        if msg.view.epoch <= self.view.epoch:
            return  # stale publish
        old, self.view = self.view, msg.view
        self.handle_view_change(old, msg.view)

    def handle_view_change(self, old: RingView, new: RingView) -> None:
        """Protocol hook: reconcile chain state after membership changed."""


def install_converged(
    data: Mapping[str, Any],
    version: VersionVector,
    now: float,
    views: Mapping[str, RingView],
    nodes: Mapping[str, Mapping[str, RingServer]],
    owns: Optional[Callable[[str, str], bool]] = None,
) -> Dict[str, Dict[str, List[str]]]:
    """Put ``data`` at ``version`` on every replica directly, skipping the
    protocol: the state a long-converged deployment would hold.

    ``views`` and ``nodes`` are per site (``nodes[site]`` by server
    name); ``owns(site, key)`` restricts a key to its owner sites. Each
    key gets **one** :class:`Record`, shared by all its replicas in all
    sites, and each server takes its keys in a single
    :meth:`VersionedStore.install`, in ``data`` order — which hands the
    store the per-server mapping built here for good, so none of them
    leaves this function. Returns ``site → server name → keys`` that did
    *not* land as given (the store already held them and arbitrated);
    every list is empty on a fresh deployment.
    """
    stamp = stamp_of(version)
    groups: Dict[str, Dict[str, Dict[str, Record]]] = {
        site: {name: {} for name in nodes[site]} for site in views
    }
    per_site = [
        (site, view.ring().chain_for, view.chain_length, groups[site])
        for site, view in views.items()
    ]
    for key, value in data.items():
        key = intern_str(key)
        record = Record(key, value, version, stamp, now)
        for site, chain_for, chain_length, site_groups in per_site:
            if owns is not None and not owns(site, key):
                continue
            for name in chain_for(key, chain_length):
                site_groups[name][key] = record
    arbitrated: Dict[str, Dict[str, List[str]]] = {}
    for site, site_groups in groups.items():
        arbitrated[site] = {}
        for name, group in site_groups.items():
            fresh = nodes[site][name].store.install(group)
            arbitrated[site][name] = [] if fresh is group else [k for k in group if k not in fresh]
    return arbitrated
