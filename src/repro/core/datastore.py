"""Deployment facade: build and operate a ChainReaction cluster.

:class:`ChainReactionStore` is the ring deployment every protocol
shares (:class:`~repro.cluster.deployment.RingDeployment`: one
simulator, one network, and per site a cluster manager and the storage
servers) plus a geo-proxy per site, the stabilization plane, and
tracing. It exposes the protocol-agnostic :class:`~repro.api.Datastore`
surface that workloads, checkers, and benchmarks run against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.api import (
    CAP_DEGRADED_READS,
    CAP_DURABLE_STORAGE,
    CAP_SNAPSHOT_READS,
    CAP_STABILITY,
    CAP_TRACING,
)

if TYPE_CHECKING:
    from repro.trace import Tracer
from repro.cluster.deployment import RingDeployment
from repro.cluster.membership import ClusterManager, RingView
from repro.core.client import ChainClientSession
from repro.core.config import ChainReactionConfig
from repro.core.geo import GeoProxy
from repro.core.node import ChainNode
from repro.core.stability_plane import plane_parts
from repro.metrics.protocol import (
    GLOBAL_STABILITY_MESSAGE_TYPES,
    SHIPPING_MESSAGE_TYPES,
    STABILITY_MESSAGE_TYPES,
    batching_stats,
    metadata_footprint,
    placement_stats,
    stability_plane_stats,
)
from repro.storage.merge import ConflictResolver
from repro.storage.version import VersionVector

__all__ = ["ChainReactionStore"]


class ChainReactionStore(RingDeployment):  # repro: lint-ok(slots) — one per deployment
    """A running ChainReaction deployment on a discrete-event simulator."""

    name = "chainreaction"
    config_class = ChainReactionConfig
    config: ChainReactionConfig

    def __init__(
        self,
        config: Optional[ChainReactionConfig] = None,
        resolver: Optional[ConflictResolver] = None,
        local_sites: Optional[Sequence[str]] = None,
    ) -> None:
        # Set before the scaffold builds the sites: its hooks read them.
        self._resolver = resolver
        self.proxies: Dict[str, GeoProxy] = {}
        self._tracer: Optional[Tracer] = None
        super().__init__(config, local_sites)
        #: the class of the stabilization plane's server half: what the
        #: facade, the metrics and the sessions need to know of a plane,
        #: they ask it
        self.plane = plane_parts(self.config).server
        caps = {CAP_SNAPSHOT_READS, CAP_STABILITY, CAP_TRACING}
        if self.config.degraded_reads:
            caps.add(CAP_DEGRADED_READS)
        if self.config.durable_storage:
            caps.add(CAP_DURABLE_STORAGE)
        if self.plane.capability is not None:
            caps.add(self.plane.capability)
        self.capabilities = frozenset(caps)

    def _new_server(self, site: str, name: str, view: RingView) -> ChainNode:
        return ChainNode(
            self.sim, self.network, site=site, name=name, initial_view=view,
            config=self.config, resolver=self._resolver,
        )

    def _site_built(self, site: str, manager: ClusterManager) -> None:
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

    def _new_session(self, site: str, name: str, view: RingView, rng: Any) -> ChainClientSession:
        session = ChainClientSession(
            self.sim,
            self.network,
            site=site,
            name=name,
            initial_view=view,
            config=self.config,
            rng=rng,
            prunes_stable_deps=self.plane.prunes_stable_deps,
        )
        session.tracer = self._tracer
        return session

    def preload(self, data: Dict[str, Any]) -> None:
        """Install records on every replica directly (skipping the protocol)
        and mark them converged on both plane halves — the warm-up path.

        All owner sites receive identical, already-stable state, exactly
        what a long-converged deployment would hold; under partial
        replication non-owner sites hold nothing (the per-DC memory win
        the census in ``bench_pr10_partial`` measures).
        """
        version = VersionVector({"preload": 1})
        arbitrated = self._install(data, version)
        catalog = self.config.placement()
        for site, site_nodes in self._nodes_by_name.items():
            view = self.managers[site].view
            place, length = view.ring().place, view.chain_length
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
