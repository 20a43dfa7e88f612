"""Quorum-replicated baseline (Dynamo/Cassandra-style R/W quorums).

A client sends each operation to a random replica of the key, which
acts as coordinator: writes are applied locally and acknowledged after
``write_quorum`` replicas (including the coordinator) confirm; reads
gather ``read_quorum`` replica responses, return the newest version,
and asynchronously read-repair the stale replicas that answered.

With ``read_quorum + write_quorum > chain_length`` reads intersect
writes and sessions see their own writes; the E10 configuration uses
non-overlapping quorums to demonstrate the session anomalies the paper
contrasts against. Cross-DC replication is asynchronous (LOCAL_QUORUM
semantics), so causal anomalies across sites remain either way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.common import BaselineConfig, RandomReplicaSession, RingDeployment
from repro.baselines.eventual import Replicate
from repro.cluster.membership import RingView
from repro.cluster.server_base import RingServer
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future, n_of
from repro.storage.store import TOMBSTONE
from repro.storage.version import VersionVector

__all__ = ["QuorumStore", "QuorumServer"]


class QuorumServer(RingServer):
    """Replica + per-request coordinator for quorum reads and writes."""

    SERVICED_TYPES = frozenset({"rpc-request", "ev-replicate"})

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        config: BaselineConfig,
        deployment: "QuorumStore",
    ) -> None:
        super().__init__(
            sim, network, site, name, initial_view, service_time=config.service_time
        )
        self.config = config
        self.deployment = deployment
        self.puts_served = 0
        self.gets_served = 0
        self.read_repairs = 0

    # ------------------------------------------------------------------
    # coordinator roles
    # ------------------------------------------------------------------
    def rpc_put(self, payload: Tuple[str, Any, bool], src: Address) -> Any:
        key, value, is_delete = payload
        stored_value = TOMBSTONE if is_delete else value
        version = self.store.version_of(key).increment(str(self.address))
        self.store.apply(key, stored_value, version, self.sim.now)
        self.puts_served += 1
        futures = [
            self.call(
                peer, "replica_write", (key, stored_value, version), timeout=self.config.op_timeout
            )
            for peer in self._local_peers(key)
        ]

        def acked(_acks: List[Any]) -> Dict[str, Any]:
            self._ship_remote(key, stored_value, version)
            return {"version": version}

        return self._after_quorum(futures, self.config.write_quorum - 1, acked)

    def rpc_get(self, key: str, src: Address) -> Any:
        self.gets_served += 1
        futures = []
        for peer in self._local_peers(key):
            # Replies complete in any order: each one names its sender.
            reply = _FromPeer(self.sim, peer)
            self.request(peer, "replica_read", key, self.config.op_timeout, reply)
            futures.append(reply)
        return self._after_quorum(
            futures,
            self.config.read_quorum - 1,
            lambda replies: self._read_result(key, replies),
        )

    def _after_quorum(
        self, futures: List[Future], needed: int, finish: Callable[[List[Any]], Any]
    ) -> Any:
        """The coordinator's reply: ``finish(results)`` once ``needed`` of
        the replicas' ``futures`` have answered (at once when none are
        needed), or the quorum's failure."""
        if needed <= 0:
            return finish([])
        out = Future(self.sim)

        def done(quorum: Future) -> None:
            if quorum.failed():
                out.set_exception(quorum.exception())  # type: ignore[arg-type]
            else:
                out.set_result(finish(quorum.result()))

        n_of(self.sim, futures, min(needed, len(futures))).add_callback(done)
        return out

    def _read_result(
        self, key: str, replies: List[Tuple[Address, Dict[str, Any]]]
    ) -> Dict[str, Any]:
        local = self.store.get_record(key)
        best_value = local.value if local is not None else None
        best_version = local.version if local is not None else VersionVector()
        best_stamp = local.stamp if local is not None else None
        for _peer, reply in replies:
            version = reply["version"]
            if version.total_order_key() > best_version.total_order_key():
                best_version = version
                best_value = reply["value"]
                best_stamp = reply["stamp"]

        self._read_repair(key, best_value, best_version, best_stamp, replies, local)
        visible = None if best_value is TOMBSTONE else best_value
        return {"value": visible, "version": best_version}

    def _read_repair(
        self,
        key: str,
        best_value: Any,
        best_version: VersionVector,
        best_stamp: Any,
        replies: List[Tuple[Address, Dict[str, Any]]],
        local_record: Any,
    ) -> None:
        """Asynchronously push the winning record to stale quorum members."""
        if best_version.is_zero():
            return
        repair = Replicate(key=key, value=best_value, version=best_version, stamp=best_stamp)
        if local_record is None or local_record.version != best_version:
            self.store.apply(key, best_value, best_version, self.sim.now, best_stamp)
        for peer, reply in replies:
            if reply["version"] != best_version:
                self.read_repairs += 1
                self.send(peer, repair)

    # ------------------------------------------------------------------
    # replica roles
    # ------------------------------------------------------------------
    def rpc_replica_write(
        self, payload: Tuple[str, Any, VersionVector], src: Address
    ) -> bool:
        key, value, version = payload
        self.store.apply(key, value, version, self.sim.now)
        return True

    def rpc_replica_read(self, key: str, src: Address) -> Dict[str, Any]:
        record = self.store.get_record(key)
        if record is None:
            return {"value": None, "version": VersionVector(), "stamp": None}
        return {"value": record.value, "version": record.version, "stamp": record.stamp}

    def on_ev_replicate(self, msg: Replicate, src: Address) -> None:
        self.store.apply(msg.key, msg.value, msg.version, self.sim.now, msg.stamp)

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def _local_peers(self, key: str) -> List[Address]:
        return [
            self.view.address_of(server)
            for server in self.view.chain_for(key)
            if server != self.name
        ]

    def _ship_remote(self, key: str, value: Any, version: VersionVector) -> None:
        """Asynchronous cross-DC replication (LOCAL_QUORUM semantics)."""
        msg = Replicate(key=key, value=value, version=version)
        for site, view in self.deployment.all_views().items():
            if site == self.site:
                continue
            for server in view.chain_for(key):
                self.send(view.address_of(server), msg)


class _FromPeer(Future):
    """A ``replica_read`` reply that resolves as ``(peer, reply)``, so a
    quorum gathered in completion order still knows who said what."""

    __slots__ = ("peer",)

    def __init__(self, sim: Simulator, peer: Address) -> None:
        super().__init__(sim)
        self.peer = peer

    def rpc_reply(self, value: Any) -> None:
        super().rpc_reply((self.peer, value))


class QuorumStore(RingDeployment):
    """Deployment facade for the quorum baseline."""

    name = "quorum"

    def __init__(
        self,
        config: Optional[BaselineConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
    ) -> None:
        super().__init__(
            config or BaselineConfig(),
            server_factory=QuorumServer,
            session_factory=RandomReplicaSession,
            sim=sim,
            network=network,
        )
