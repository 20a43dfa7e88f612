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

from repro.cluster.membership import HEARTBEAT_INTERVAL, Heartbeat, RingView, ViewChange
from repro.cluster.placement import Catalog
from repro.cluster.ring import HashRing, chain_positions
from repro.errors import NotResponsibleError
from repro.net.actor import Actor
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.storage.merge import ConflictResolver
from repro.storage.store import ConvergedBase, VersionedStore
from repro.storage.version import VersionVector, intern_str

__all__ = ["RingServer", "install_converged", "PreloadPlacement", "Holding"]


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
        self._start_heartbeats()

    # ------------------------------------------------------------------
    # heartbeating
    # ------------------------------------------------------------------
    def _start_heartbeats(self) -> None:
        self.set_timer(HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self.send(self._manager, Heartbeat(server=self.name, epoch=self.view.epoch))
        self.set_timer(HEARTBEAT_INTERVAL, self._heartbeat_tick)

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
    catalog: Catalog,
) -> Dict[str, Dict[str, List[str]]]:
    """Put ``data`` at ``version`` on every replica directly, skipping the
    protocol: the state a long-converged deployment would hold.

    ``views`` and ``nodes`` are per site (``nodes[site]`` by server
    name); ``catalog`` restricts a key to its owner sites
    (:mod:`repro.cluster.placement`), asked, like :meth:`HashRing.place`,
    without memoizing anything. The
    install is **one** :class:`ConvergedBase`, the *base*: one
    ``key → value`` table in ``data`` order at one version, stamp and
    install time. A key's ``Record`` is built on first touch, then
    shared by every replica of the key. Every server takes the base in a
    single :meth:`VersionedStore.install` with the fixed rule
    :meth:`Holding.holds` for which of its keys it holds, and nothing is
    placed here: a key is placed when something first asks about it.
    Returns ``site → server name → keys`` that did *not* land as given
    (the store already held them and arbitrated); every list is empty on
    a fresh deployment.
    """
    base = ConvergedBase({intern_str(key): value for key, value in data.items()}, version, now)
    arbitrated: Dict[str, Dict[str, List[str]]] = {}
    for site, view in views.items():
        placement = PreloadPlacement(view.ring(), view.chain_length, catalog, site)
        arbitrated[site] = {
            name: node.store.install(base, Holding(name, placement).holds)
            for name, node in nodes[site].items()
        }
    return arbitrated


class PreloadPlacement:
    """Where one site's preloaded keys live, fixed at preload: a key's
    chain under ``ring`` (the preload view's, never a later one) at
    ``length``, if the site ``owned`` the key — which nothing asks when
    the catalog says the site ``owns_all`` keys (full replication). One
    per site, told apart by identity.

    A key's chain is a pure function of the ring and the key, so it is
    computed when asked for, never ahead: read off the ring's chain memo
    (``routed``) if the run has routed the key, else placed without
    memoizing it (:meth:`HashRing.place`). A walk over every base key
    (the census, counts, repair) therefore leaves the memo holding only
    what the run routed.
    """

    __slots__ = ("ring", "length", "owns_all", "owned", "routed")

    def __init__(self, ring: HashRing, length: int, catalog: Catalog, site: str) -> None:
        self.ring = ring
        self.length = length
        self.owns_all = catalog.owns_all(site)
        self.owned: Callable[[str], bool] = functools.partial(catalog.owns_unmemoized, site)
        self.routed = ring.routed(length)


class Holding:
    """Which base keys server ``name`` holds: those its site owns whose
    chain under ``placement`` names it. :meth:`holds` is the fixed rule
    :meth:`VersionedStore.install` keeps (a bound method: stores ask it
    on every read that misses their own table)."""

    __slots__ = ("name", "placement")

    def __init__(self, name: str, placement: PreloadPlacement) -> None:
        self.name = name
        self.placement = placement

    def holds(self, key: str) -> bool:
        placement = self.placement
        if not placement.owns_all and not placement.owned(key):
            return False
        chain = placement.routed.get(key)
        if chain is None:
            chain = placement.ring.place(key, placement.length)
        return self.name in chain
