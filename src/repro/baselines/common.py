"""Shared scaffolding for the baseline deployments.

Every baseline places keys with the same consistent-hash ring, runs one
cluster manager per site, and hands out sequential client sessions —
exactly like the ChainReaction deployment, so that benchmark comparisons
measure *protocol* differences, not harness differences.

:class:`BaselineConfig` carries the knobs the baselines share;
:class:`RingDeployment` assembles sim/network/managers/servers and
implements the :class:`~repro.api.Datastore` surface given two
factories (server and session). :class:`RandomReplicaSession` is the
session of the two baselines whose every replica serves every operation
(eventual and quorum).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import ClientSession, Datastore, GetResult, PutResult
from repro.cluster.client_base import RetryingOp, RetryingSession
from repro.cluster.membership import ClusterManager, RingView
from repro.cluster.server_base import RingServer, install_converged
from repro.errors import ConfigError
from repro.net.latency import lan_latency, wan_latency
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future
from repro.sim.rng import RngRegistry
from repro.storage.version import VersionVector

__all__ = ["BaselineConfig", "RandomReplicaSession", "RingDeployment"]


@dataclasses.dataclass(frozen=True)
class BaselineConfig:
    """Deployment knobs shared by every baseline protocol."""

    sites: Tuple[str, ...] = ("dc0",)
    servers_per_site: int = 6
    chain_length: int = 3
    op_timeout: float = 0.25
    client_retry_backoff: float = 0.02
    max_retries: int = 25
    backoff_multiplier: float = 2.0
    max_backoff: float = 0.5
    backoff_jitter: float = 0.1
    op_deadline: float = 0.0
    lan_median: float = 0.0003
    wan_median: float = 0.040
    heartbeat_interval: float = 0.05
    failure_timeout: float = 0.25
    service_time: float = 0.0001
    virtual_nodes: int = 64
    seed: int = 42
    # quorum-specific (ignored by the others)
    write_quorum: int = 2
    read_quorum: int = 2
    # eventual-specific
    anti_entropy_interval: float = 0.5

    def __post_init__(self) -> None:
        if not self.sites or len(set(self.sites)) != len(self.sites):
            raise ConfigError(f"invalid sites: {self.sites}")
        if self.chain_length < 1 or self.chain_length > self.servers_per_site:
            raise ConfigError(
                f"chain_length {self.chain_length} invalid for "
                f"{self.servers_per_site} servers"
            )
        if not 1 <= self.write_quorum <= self.chain_length:
            raise ConfigError(f"write_quorum {self.write_quorum} out of range")
        if not 1 <= self.read_quorum <= self.chain_length:
            raise ConfigError(f"read_quorum {self.read_quorum} out of range")

    @property
    def is_geo(self) -> bool:
        return len(self.sites) > 1

    def with_updates(self, **changes: object) -> "BaselineConfig":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


ServerFactory = Callable[..., RingServer]
SessionFactory = Callable[..., ClientSession]


class RingDeployment(Datastore):
    """Generic sim + network + managers + ring servers deployment."""

    name = "ring-deployment"

    def __init__(
        self,
        config: BaselineConfig,
        server_factory: ServerFactory,
        session_factory: SessionFactory,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
    ) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.rng = RngRegistry(config.seed)
        self.network = network or Network(
            self.sim,
            rng=self.rng,
            lan=lan_latency(config.lan_median),
            wan=wan_latency(config.wan_median),
        )
        self.managers: Dict[str, ClusterManager] = {}
        self.nodes: Dict[str, List[RingServer]] = {}
        self._nodes_by_name: Dict[str, Dict[str, RingServer]] = {}
        self._session_factory = session_factory
        self._sessions: List[ClientSession] = []
        self._session_seq = 0

        for site in config.sites:
            server_names = [f"s{i}" for i in range(config.servers_per_site)]
            manager = ClusterManager(
                self.sim,
                self.network,
                site=site,
                servers=server_names,
                chain_length=config.chain_length,
                heartbeat_interval=config.heartbeat_interval,
                failure_timeout=config.failure_timeout,
                virtual_nodes=config.virtual_nodes,
            )
            self.managers[site] = manager
            self.nodes[site] = [
                server_factory(
                    sim=self.sim,
                    network=self.network,
                    site=site,
                    name=name,
                    initial_view=manager.view,
                    config=config,
                    deployment=self,
                )
                for name in server_names
            ]
            self._nodes_by_name[site] = {node.name: node for node in self.nodes[site]}

    # ------------------------------------------------------------------
    # Datastore surface
    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[str]:
        return list(self.config.sites)

    def session(
        self, site: Optional[str] = None, session_id: Optional[str] = None
    ) -> ClientSession:
        site = site or self.config.sites[0]
        if site not in self.managers:
            raise ConfigError(f"unknown site {site!r}; have {self.sites}")
        self._session_seq += 1
        name = session_id or f"client{self._session_seq}"
        session = self._session_factory(
            sim=self.sim,
            network=self.network,
            site=site,
            name=name,
            initial_view=self.managers[site].view,
            config=self.config,
            rng=self.rng.stream(f"client:{site}:{name}"),
        )
        self._sessions.append(session)
        return session

    def servers(self, site: Optional[str] = None) -> List[RingServer]:
        if site is not None:
            return list(self.nodes[site])
        return [node for nodes in self.nodes.values() for node in nodes]

    def converged(self, key: str) -> bool:
        observed = set()
        for site, manager in self.managers.items():
            for server_name in manager.view.chain_for(key):
                node = self._node(site, server_name)
                record = node.store.get_record(key)
                if record is None:
                    observed.add((None, VersionVector()))
                else:
                    observed.add((record.value, record.version))
        return len(observed) == 1

    # ------------------------------------------------------------------
    # helpers shared with the core facade
    # ------------------------------------------------------------------
    def _node(self, site: str, name: str) -> RingServer:
        node = self._nodes_by_name[site].get(name)
        if node is None:
            raise ConfigError(f"no node {name!r} in {site!r}")
        return node

    def view_of(self, site: str) -> RingView:
        return self.managers[site].view

    def all_views(self) -> Dict[str, RingView]:
        return {site: mgr.view for site, mgr in self.managers.items()}

    def preload(self, data: Dict[str, Any]) -> None:
        """Install identical, converged records on every replica directly."""
        install_converged(
            data,
            VersionVector({"preload": 1}),
            self.sim.now,
            self.all_views(),
            self._nodes_by_name,
        )

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def protocol_stats(self) -> Dict[str, Any]:
        return {
            "messages_sent": self.network.stats.messages_sent,
            "bytes_sent": self.network.stats.bytes_sent,
            "cross_site_bytes": self.network.stats.cross_site_bytes,
        }

    def client_rng(self, session_name: str) -> random.Random:
        return self.rng.stream(f"client:{session_name}")


class RandomReplicaSession(RetryingSession):
    """Client of the eventual and quorum stores: each attempt goes to one
    random replica of the key's chain (a plain replica for eventual, the
    request's coordinator for quorum)."""

    def get(self, key: str) -> Future:
        return self._start("get", key, key)

    def put(self, key: str, value: Any) -> Future:
        return self._start("put", key, (key, value, False))

    def delete(self, key: str) -> Future:
        return self._start("put", key, (key, None, True))

    def _start(self, method: str, key: str, payload: Any) -> Future:
        self._check_open()
        op = _RandomReplicaOp(self, method, key, payload)
        op._try()
        return op


class _RandomReplicaOp(RetryingOp):
    """One ``get`` / ``put`` RPC per attempt, each to a freshly drawn
    replica."""

    __slots__ = ("_payload", "_target")

    def __init__(self, session: RandomReplicaSession, method: str, key: str, payload: Any) -> None:
        super().__init__(session, method, key)
        self._payload = payload

    def _try(self) -> None:
        session = self._session
        view = session.view
        target = self._target = view.address_of(session._rng.choice(view.chain_for(self._key)))
        session.request(target, self._op, self._payload, session.config.op_timeout, self)

    def rpc_reply(self, reply: Dict[str, Any]) -> None:
        if self._op == "get":
            self.set_result(
                GetResult(
                    key=self._key, value=reply["value"], version=reply["version"],
                    stable=True, served_by=self._target.node,
                )
            )
        else:
            self.set_result(PutResult(key=self._key, version=reply["version"], stable=True))
