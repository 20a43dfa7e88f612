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
(eventual and quorum). Every baseline client asks with a :class:`KvGet`
or a :class:`KvPut`, and is answered by a :class:`KvReply`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.api import ClientSession, Datastore, GetResult, PutResult
from repro.cluster.client_base import RetryingOp, RetryingSession
from repro.cluster.membership import ClusterManager, RingView
from repro.cluster.placement import FullReplication
from repro.cluster.server_base import RingServer, install_converged
from repro.errors import ConfigError
from repro.net.latency import lan_latency, wan_latency
from repro.net.message import Message, wire_message
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future
from repro.sim.rng import RngRegistry
from repro.storage.version import VersionVector

__all__ = [
    "BaselineConfig", "KvAck", "KvGet", "KvPut", "KvReply", "RandomReplicaSession",
    "RingDeployment",
]


@wire_message
class KvGet(Message):
    """Client → a replica (COPS: the key's owner): read ``key``."""

    type_name: ClassVar[str] = "kv-get"
    request_id: int = 0
    key: str = ""


@wire_message
class KvPut(Message):
    """Client → a replica: write ``value`` to ``key`` (or delete it).
    ``deps`` is the COPS session's context; empty for the others."""

    type_name: ClassVar[str] = "kv-put"
    request_id: int = 0
    key: str = ""
    value: Any = None
    is_delete: bool = False
    deps: Dict[str, VersionVector] = dataclasses.field(default_factory=dict)


@wire_message
class KvReply(Message):
    """The answer to a :class:`KvGet` (``value``, ``version``) or a
    :class:`KvPut` (the write's ``version``), or ``ok=False`` with the
    reason it was refused."""

    type_name: ClassVar[str] = "kv-reply"
    request_id: int = 0
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    ok: bool = True
    error: str = ""

    @classmethod
    def of_record(cls, request_id: int, record: Any) -> "KvReply":
        """A get's answer: ``record`` (None, or deleted: no value)."""
        if record is None:
            return cls(request_id)
        return cls(request_id, None if record.is_deleted else record.value, record.version)


@wire_message
class KvAck(Message):
    """Server → server: a quorum replica's write or a COPS dependency check is done."""

    type_name: ClassVar[str] = "kv-ack"
    request_id: int = 0


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
            FullReplication(self.config.sites),
        )

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def protocol_stats(self) -> Dict[str, Any]:
        return {
            "messages_sent": self.network.stats.messages_sent,
            "bytes_sent": self.network.stats.bytes_sent,
            "cross_site_bytes": self.network.stats.cross_site_bytes,
        }


class RandomReplicaSession(RetryingSession):
    """Client of the eventual and quorum stores: each attempt goes to one
    random replica of the key's chain (a plain replica for eventual, the
    request's coordinator for quorum)."""

    def get(self, key: str) -> Future:
        return self._start("get", key, None, False)

    def put(self, key: str, value: Any) -> Future:
        return self._start("put", key, value, False)

    def delete(self, key: str) -> Future:
        return self._start("put", key, None, True)

    def _start(self, op: str, key: str, value: Any, is_delete: bool) -> Future:
        self._check_open()
        attempt = _RandomReplicaOp(self, op, key, value, is_delete)
        attempt._try()
        return attempt

    #: the replicas' answers
    on_kv_reply = RetryingSession.take_reply


class _RandomReplicaOp(RetryingOp):
    """One ``KvGet`` / ``KvPut`` per attempt, each to a freshly drawn
    replica; a refused attempt is retried."""

    __slots__ = ("_new_value", "_is_delete", "_target")

    def __init__(
        self, session: RandomReplicaSession, op: str, key: str, value: Any, is_delete: bool
    ) -> None:
        super().__init__(session, op, key)
        self._new_value = value
        self._is_delete = is_delete

    def _try(self) -> None:
        session = self._session
        view = session.view
        target = self._target = view.address_of(session._rng.choice(view.chain_for(self._key)))
        timeout = session.config.op_timeout
        if self._op == "get":
            session.ask(self, timeout, target, KvGet, self._key)
        else:
            session.ask(self, timeout, target, KvPut, self._key, self._new_value, self._is_delete)

    def rpc_reply(self, reply: KvReply) -> None:
        if not reply.ok:
            self._retry()
        elif self._op == "get":
            self.set_result(
                GetResult(
                    key=self._key, value=reply.value, version=reply.version,
                    stable=True, served_by=self._target.node,
                )
            )
        else:
            self.set_result(PutResult(key=self._key, version=reply.version, stable=True))
