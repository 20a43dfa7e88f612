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

import functools
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.cluster.membership import Heartbeat, RingView, ViewChange
from repro.cluster.ring import chain_positions
from repro.errors import NotResponsibleError
from repro.net.actor import Actor
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.storage.merge import ConflictResolver
from repro.storage.store import ConvergedBase, VersionedStore
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
    name); ``owns(site, key)`` restricts a key to its owner sites. The
    install is **one** :class:`ConvergedBase`, the *base*: one
    ``key → value`` table in ``data`` order at one version, stamp and
    install time. A key's ``Record`` is built on first touch, then
    shared by every replica of the key. Every server takes the base in a
    single :meth:`VersionedStore.install` with the rule for which of its
    keys it holds: its name is in the key's chain under ``views`` — the
    preload-time view, never a later one — and its site owns the key.
    Returns ``site → server name → keys`` that did *not* land as given
    (the store already held them and arbitrated); every list is empty on
    a fresh deployment.
    """
    base = ConvergedBase({intern_str(key): value for key, value in data.items()}, version, now)
    arbitrated: Dict[str, Dict[str, List[str]]] = {}
    for site, view in views.items():
        # Placing every key now, not at its first lookup, keeps that
        # work (and the memo's growth) out of the run.
        chains = view.ring().chains(base.entries, view.chain_length)
        owned = None if owns is None else functools.partial(owns, site)
        arbitrated[site] = {
            name: node.store.install(base, _holding(name, chains, owned))
            for name, node in nodes[site].items()
        }
    return arbitrated


def _holding(
    name: str, chains: Mapping[str, List[str]], owned: Optional[Callable[[str], bool]]
) -> Callable[[str], bool]:
    """Which base keys server ``name`` holds: those whose chain in
    ``chains`` (the preload view's, covering every base key) names it
    and, under placement, that its site ``owned``."""
    if owned is None:
        return lambda key: name in chains[key]
    return lambda key: owned(key) and name in chains[key]
