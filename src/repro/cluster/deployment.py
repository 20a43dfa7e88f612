"""One ring deployment: the scaffold every protocol's store builds on.

ChainReaction and every baseline run on the same cluster: one simulator,
one seeded RNG registry, one network with the config's LAN / WAN latency
models, and per site a cluster manager and ``servers_per_site`` ring
servers, handing out sequential client sessions. :class:`RingDeployment`
builds that once and implements the :class:`~repro.api.Datastore`
surface over it, so benchmark comparisons measure *protocol*
differences, not harness differences. A store names its server and
session classes and extends what it must: ChainReaction adds a
geo-proxy per site (:meth:`RingDeployment._site_built`), its plane and
tracing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from repro.api import ClientSession, Datastore
from repro.cluster.config import DeploymentConfig
from repro.cluster.membership import ClusterManager, RingView
from repro.cluster.server_base import RingServer, install_converged
from repro.errors import ConfigError
from repro.net.latency import lan_latency, wan_latency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.version import VersionVector

__all__ = ["RingDeployment"]


class RingDeployment(Datastore):
    """Sim + network + per-site managers and ring servers, and the
    sessions opened on them.

    ``local_sites`` builds only those sites' actors (a shard of a
    parallel run); ``config.sites`` keeps the full topology. Default:
    own everything.
    """

    name = "ring-deployment"
    #: the config a deployment builds from when given none
    config_class: Type[DeploymentConfig] = DeploymentConfig
    #: built as ``server_class(sim, network, site, name, view, config, deployment)``
    server_class: Callable[..., RingServer]
    #: built as ``session_class(sim, network, site=, name=, initial_view=, config=, rng=)``
    session_class: Callable[..., ClientSession]

    def __init__(
        self,
        config: Optional[DeploymentConfig] = None,
        local_sites: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config = config or self.config_class()
        if local_sites is None:
            local_sites = config.sites
        unknown = [s for s in local_sites if s not in config.sites]
        if unknown:
            raise ConfigError(f"local_sites {unknown} not in topology {config.sites}")
        self.local_sites = tuple(local_sites)
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)
        self.network = Network(
            self.sim,
            rng=self.rng,
            lan=lan_latency(config.lan_median),
            wan=wan_latency(config.wan_median),
        )
        self.managers: Dict[str, ClusterManager] = {}
        self.nodes: Dict[str, List[Any]] = {}
        self._nodes_by_name: Dict[str, Dict[str, Any]] = {}
        self._sessions: List[Any] = []
        self._session_seq = 0

        for site in self.local_sites:
            server_names = list(config.server_names())
            manager = ClusterManager(
                self.sim,
                self.network,
                site=site,
                servers=server_names,
                chain_length=config.chain_length,
                failure_timeout=config.failure_timeout,
                virtual_nodes=config.virtual_nodes,
            )
            self.managers[site] = manager
            self.nodes[site] = [self._new_server(site, name, manager.view) for name in server_names]
            self._nodes_by_name[site] = {node.name: node for node in self.nodes[site]}
            self._site_built(site, manager)

    # ------------------------------------------------------------------
    # what a store names or extends
    # ------------------------------------------------------------------
    def _new_server(self, site: str, name: str, view: RingView) -> Any:
        return self.server_class(self.sim, self.network, site, name, view, self.config, self)

    def _new_session(self, site: str, name: str, view: RingView, rng: Any) -> Any:
        return self.session_class(
            self.sim, self.network, site=site, name=name, initial_view=view,
            config=self.config, rng=rng,
        )

    def _site_built(self, site: str, manager: ClusterManager) -> None:
        """Hook: ``site``'s manager and servers exist."""

    # ------------------------------------------------------------------
    # Datastore surface
    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[str]:
        return list(self.config.sites)

    def session(self, site: Optional[str] = None, session_id: Optional[str] = None) -> Any:
        site = site or self.config.sites[0]
        if site not in self.managers:
            raise ConfigError(f"unknown site {site!r}; have {self.sites}")
        self._session_seq += 1
        name = session_id or f"client{self._session_seq}"
        session = self._new_session(
            site, name, self.managers[site].view, self.rng.stream(f"client:{site}:{name}")
        )
        self._sessions.append(session)
        return session

    def servers(self, site: Optional[str] = None) -> List[Any]:
        if site is not None:
            return list(self.nodes[site])
        return [node for nodes in self.nodes.values() for node in nodes]

    def converged(self, key: str) -> bool:
        """True when every replica of ``key``, in every owner DC, holds the
        same (value, version) — including tombstones. Under full
        replication every DC is an owner."""
        placement = self.config.placement()
        observed = set()
        for site, manager in self.managers.items():
            if not placement.owns(site, key):
                continue
            for server_name in manager.view.chain_for(key):
                record = self._node(site, server_name).store.get_record(key)
                if record is None:
                    observed.add((None, VersionVector()))
                else:
                    observed.add((record.value, record.version))
        return len(observed) == 1

    # ------------------------------------------------------------------
    # harness helpers
    # ------------------------------------------------------------------
    def _node(self, site: str, name: str) -> Any:
        node = self._nodes_by_name[site].get(name)
        if node is None:
            raise ConfigError(f"no node {name!r} in {site!r}")
        return node

    def all_views(self) -> Dict[str, RingView]:
        return {site: mgr.view for site, mgr in self.managers.items()}

    def preload(self, data: Dict[str, Any]) -> None:
        """Install identical, converged records on every replica directly,
        skipping the protocol — the warm-up path."""
        self._install(data, VersionVector({"preload": 1}))

    def _install(self, data: Dict[str, Any], version: VersionVector) -> Dict[str, Dict[str, List[str]]]:
        """:func:`install_converged` ``data`` at ``version`` on every owner
        site's replicas; returns what it returns."""
        return install_converged(
            data, version, self.sim.now, self.all_views(), self._nodes_by_name,
            self.config.placement(),
        )

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (convenience passthrough)."""
        return self.sim.run(until=until)

    def protocol_stats(self) -> Dict[str, Any]:
        return {
            "messages_sent": self.network.stats.messages_sent,
            "bytes_sent": self.network.stats.bytes_sent,
            "cross_site_bytes": self.network.stats.cross_site_bytes,
        }
