"""Deployment facade: build and operate a ChainReaction cluster.

:class:`ChainReactionStore` wires together everything a deployment
needs — one simulator, one network, and per site a cluster manager, the
storage servers, and a geo-proxy — and exposes the protocol-agnostic
:class:`~repro.api.Datastore` surface that workloads, checkers, and
benchmarks run against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.api import (
    CAP_DEGRADED_READS,
    CAP_DURABLE_STORAGE,
    CAP_SNAPSHOT_READS,
    CAP_STABILITY,
    CAP_TRACING,
    Datastore,
)

if TYPE_CHECKING:
    from repro.trace import Tracer
from repro.cluster.membership import ClusterManager
from repro.cluster.server_base import install_converged
from repro.core.client import ChainClientSession
from repro.core.config import ChainReactionConfig
from repro.core.geo import GeoProxy
from repro.core.node import ChainNode
from repro.core.stability_plane import plane_parts
from repro.errors import ConfigError
from repro.metrics.protocol import (
    GLOBAL_STABILITY_MESSAGE_TYPES,
    SHIPPING_MESSAGE_TYPES,
    STABILITY_MESSAGE_TYPES,
    batching_stats,
    metadata_footprint,
    placement_stats,
    stability_plane_stats,
)
from repro.net.latency import lan_latency, wan_latency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.merge import ConflictResolver
from repro.storage.version import VersionVector

__all__ = ["ChainReactionStore"]


class ChainReactionStore(Datastore):  # repro: lint-ok(slots) — one per deployment; attach_tracer sets attributes dynamically
    """A running ChainReaction deployment on a discrete-event simulator."""

    name = "chainreaction"

    def __init__(
        self,
        config: Optional[ChainReactionConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        resolver: Optional[ConflictResolver] = None,
        local_sites: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config or ChainReactionConfig()
        # A shard of a parallel run builds actors only for the sites it
        # owns; config.sites keeps the full topology so geo-proxies
        # still know their (remote) peers. Default: own everything.
        if local_sites is None:
            self.local_sites = tuple(self.config.sites)
        else:
            unknown = [s for s in local_sites if s not in self.config.sites]
            if unknown:
                raise ConfigError(
                    f"local_sites {unknown} not in topology {self.config.sites}"
                )
            self.local_sites = tuple(local_sites)
        caps = {CAP_SNAPSHOT_READS, CAP_STABILITY, CAP_TRACING}
        if self.config.degraded_reads:
            caps.add(CAP_DEGRADED_READS)
        if self.config.durable_storage:
            caps.add(CAP_DURABLE_STORAGE)
        #: the class of the stabilization plane's server half: what the
        #: facade, the metrics and the sessions need to know of a plane,
        #: they ask it
        self.plane = plane_parts(self.config).server
        if self.plane.capability is not None:
            caps.add(self.plane.capability)
        self.capabilities = frozenset(caps)
        self.sim = sim or Simulator()
        self.rng = RngRegistry(self.config.seed)
        self.network = network or Network(
            self.sim,
            rng=self.rng,
            lan=lan_latency(self.config.lan_median),
            wan=wan_latency(self.config.wan_median),
        )
        self.managers: Dict[str, ClusterManager] = {}
        self.nodes: Dict[str, List[ChainNode]] = {}
        self._nodes_by_name: Dict[str, Dict[str, ChainNode]] = {}
        self.proxies: Dict[str, GeoProxy] = {}
        self._sessions: List[ChainClientSession] = []
        self._session_seq = 0
        self._resolver = resolver

        for site in self.local_sites:
            server_names = [f"s{i}" for i in range(self.config.servers_per_site)]
            manager = ClusterManager(
                self.sim,
                self.network,
                site=site,
                servers=server_names,
                chain_length=self.config.chain_length,
                heartbeat_interval=self.config.heartbeat_interval,
                failure_timeout=self.config.failure_timeout,
                virtual_nodes=self.config.virtual_nodes,
            )
            self.managers[site] = manager
            self.nodes[site] = [
                ChainNode(
                    self.sim,
                    self.network,
                    site=site,
                    name=name,
                    initial_view=manager.view,
                    config=self.config,
                    resolver=resolver,
                )
                for name in server_names
            ]
            self._nodes_by_name[site] = {node.name: node for node in self.nodes[site]}
            # Every site has its proxy, a single site's too: it hosts the
            # plane's per-site role, and with no peers it ships nothing.
            proxy = GeoProxy(
                self.sim,
                self.network,
                site=site,
                all_sites=self.config.sites,
                initial_view=manager.view,
                config=self.config,
            )
            manager.add_view_listener(proxy.set_view)
            self.proxies[site] = proxy

    # ------------------------------------------------------------------
    # Datastore surface
    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[str]:
        return list(self.config.sites)

    def session(
        self, site: Optional[str] = None, session_id: Optional[str] = None
    ) -> ChainClientSession:
        site = site or self.config.sites[0]
        if site not in self.managers:
            raise ConfigError(f"unknown site {site!r}; have {self.sites}")
        self._session_seq += 1
        name = session_id or f"client{self._session_seq}"
        session = ChainClientSession(
            self.sim,
            self.network,
            site=site,
            name=name,
            initial_view=self.managers[site].view,
            config=self.config,
            rng=self.rng.stream(f"client:{site}:{name}"),
            prunes_stable_deps=self.plane.prunes_stable_deps,
        )
        session.tracer = getattr(self, "_tracer", None)
        self._sessions.append(session)
        return session

    def servers(self, site: Optional[str] = None) -> List[ChainNode]:
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
                node = self._node(site, server_name)
                record = node.store.get_record(key)
                if record is None:
                    observed.add((None, VersionVector()))
                else:
                    observed.add((record.value, record.version))
        return len(observed) == 1

    # ------------------------------------------------------------------
    # harness helpers
    # ------------------------------------------------------------------
    def _node(self, site: str, name: str) -> ChainNode:
        node = self._nodes_by_name[site].get(name)
        if node is None:
            raise ConfigError(f"no node {name!r} in {site!r}")
        return node

    def preload(self, data: Dict[str, Any]) -> None:
        """Install records on every replica directly (skipping the protocol)
        and mark them converged on both plane halves — the warm-up path.

        All owner sites receive identical, already-stable state, exactly
        what a long-converged deployment would hold; under partial
        replication non-owner sites hold nothing (the per-DC memory win
        the census in ``bench_pr10_partial`` measures).
        """
        version = VersionVector({"preload": 1})
        catalog = self.config.placement()
        views = {site: manager.view for site, manager in self.managers.items()}
        arbitrated = install_converged(
            data, version, self.sim.now, views, self._nodes_by_name, catalog
        )
        for site, site_nodes in self._nodes_by_name.items():
            place, length = views[site].ring().place, views[site].chain_length
            for name, node in site_nodes.items():
                # every key handed this node, placed without memoizing
                # it; called, if at all, within this iteration
                placed = lambda: [  # noqa: E731
                    key for key in data
                    if name in place(key, length) and catalog.owns_unmemoized(site, key)
                ]
                node.plane.mark_converged(version, arbitrated[site][name], placed)
                for key in [k for k in node._stable_records if k in data]:
                    node._refresh_stable_record(key)
        for proxy in self.proxies.values():
            proxy.plane.mark_converged(version)

    def attach_tracer(self, capacity: int = 100_000) -> Tracer:
        """Attach a structured-trace collector to every actor in the
        deployment (servers, managers, proxies, and future sessions);
        returns the :class:`~repro.trace.Tracer`."""
        from repro.trace import Tracer

        tracer = Tracer(self.sim, capacity=capacity)
        for node in self.servers():
            node.tracer = tracer
        for manager in self.managers.values():
            manager.tracer = tracer
        for proxy in self.proxies.values():
            proxy.tracer = tracer
        for session in self._sessions:
            session.tracer = tracer
        self._tracer = tracer
        return tracer

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (convenience passthrough)."""
        return self.sim.run(until=until)

    def protocol_stats(self) -> Dict[str, Any]:
        """Aggregated protocol counters across all servers and proxies."""
        nodes = self.servers()
        stats: Dict[str, Any] = {
            "puts_served": sum(n.puts_served for n in nodes),
            "gets_served": sum(n.gets_served for n in nodes),
            "remote_applies": sum(n.remote_applies for n in nodes),
            "dep_waits": sum(n.dep_waits for n in nodes),
            "dep_wait_timeouts": sum(n.dep_wait_timeouts for n in nodes),
            "rejected_ops": sum(n.rejected_ops for n in nodes),
            "conflicts_resolved": sum(n.store.conflicts_resolved for n in nodes),
            "messages_sent": self.network.stats.messages_sent,
            "bytes_sent": self.network.stats.bytes_sent,
            "cross_site_bytes": self.network.stats.cross_site_bytes,
        }
        proxies = self.proxies.values()
        stats["updates_shipped"] = sum(p.updates_shipped for p in proxies)
        stats["updates_applied"] = sum(p.updates_applied for p in proxies)
        stats["updates_abandoned"] = sum(p.updates_abandoned for p in proxies)
        stats["visibility_samples"] = [s for p in proxies for s in p.visibility_samples]
        stats["global_stability_samples"] = [
            s for p in proxies for s in p.global_stability_samples
        ]
        net = self.network.stats
        stats["stability_messages"] = net.count_of(*STABILITY_MESSAGE_TYPES)
        stats["global_stability_messages"] = net.count_of(*GLOBAL_STABILITY_MESSAGE_TYPES)
        stats["shipping_messages"] = net.count_of(*SHIPPING_MESSAGE_TYPES)
        stats["metadata"] = metadata_footprint(nodes, self._sessions)
        stats["placement"] = placement_stats(self)
        stats["stability_plane"] = stability_plane_stats(self)
        batching = batching_stats([*nodes, *proxies])
        if batching:
            stats["batching"] = batching
        return stats
