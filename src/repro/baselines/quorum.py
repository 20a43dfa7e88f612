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

import dataclasses
from typing import Any, Callable, ClassVar, List, Tuple

from repro.baselines.common import (
    BaselineConfig,
    KvAck,
    KvGet,
    KvPut,
    KvReply,
    RandomReplicaSession,
)
from repro.cluster.deployment import RingDeployment
from repro.baselines.eventual import Replicate
from repro.cluster.membership import RingView
from repro.cluster.server_base import RingServer
from repro.net.message import Message, wire_message
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future, n_of
from repro.storage.store import TOMBSTONE
from repro.storage.version import VersionVector

__all__ = ["QuorumStore", "QuorumServer"]


@wire_message
class ReplicaWrite(Message):
    """Coordinator → a local replica: apply this write; answered by a ``KvAck``."""

    type_name: ClassVar[str] = "q-replica-write"
    request_id: int = 0
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)


@wire_message
class ReplicaRead(Message):
    """Coordinator → a local replica: its record of ``key``, please."""

    type_name: ClassVar[str] = "q-replica-read"
    request_id: int = 0
    key: str = ""


@wire_message
class ReplicaRecord(Message):
    """Replica → coordinator: its record of the key (all defaults: none)."""

    type_name: ClassVar[str] = "q-replica-record"
    request_id: int = 0
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    stamp: Any = None


class QuorumServer(RingServer):
    """Replica + per-request coordinator for quorum reads and writes."""

    SERVICED_TYPES = frozenset(
        {"kv-get", "kv-put", "q-replica-write", "q-replica-read", "ev-replicate"}
    )

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
    def on_kv_put(self, msg: KvPut, src: Address) -> None:
        key = msg.key
        stored_value = TOMBSTONE if msg.is_delete else msg.value
        version = self.store.version_of(key).increment(str(self.address))
        self.store.apply(key, stored_value, version, self.sim.now)
        self.puts_served += 1
        acks = []
        for peer in self._local_peers(key):
            ack = Future(self.sim)
            self.ask(ack, self.config.op_timeout, peer, ReplicaWrite, key, stored_value, version)
            acks.append(ack)

        def acked(_acks: List[Any]) -> KvReply:
            self._ship_remote(key, stored_value, version)
            return KvReply(request_id=msg.request_id, version=version)

        self._reply_after_quorum(src, msg.request_id, acks, self.config.write_quorum - 1, acked)

    def on_kv_get(self, msg: KvGet, src: Address) -> None:
        key = msg.key
        self.gets_served += 1
        records = []
        for peer in self._local_peers(key):
            # Replies complete in any order: each one names its sender.
            record = _FromPeer(self.sim, peer)
            self.ask(record, self.config.op_timeout, peer, ReplicaRead, key)
            records.append(record)
        self._reply_after_quorum(
            src, msg.request_id, records, self.config.read_quorum - 1,
            lambda replies: self._read_result(key, msg.request_id, replies),
        )

    def _reply_after_quorum(
        self, client: Address, request_id: int, futures: List[Future], needed: int,
        finish: Callable[[List[Any]], KvReply],
    ) -> None:
        """Answer ``client`` with ``finish(results)`` once ``needed`` of
        the replicas' ``futures`` have answered (at once when none are
        needed), or refuse when the quorum fails."""

        def done(quorum: Future) -> None:
            if quorum.failed():
                self.send(client, KvReply(request_id, ok=False, error=str(quorum.exception())))
            else:
                self.send(client, finish(quorum.result()))

        n_of(self.sim, futures, min(needed, len(futures))).add_callback(done)

    def _read_result(
        self, key: str, request_id: int, replies: List[Tuple[Address, ReplicaRecord]]
    ) -> KvReply:
        local = self.store.get_record(key)
        best_value = local.value if local is not None else None
        best_version = local.version if local is not None else VersionVector()
        best_stamp = local.stamp if local is not None else None
        for _peer, reply in replies:
            version = reply.version
            if version.total_order_key() > best_version.total_order_key():
                best_version = version
                best_value = reply.value
                best_stamp = reply.stamp

        self._read_repair(key, best_value, best_version, best_stamp, replies, local)
        visible = None if best_value is TOMBSTONE else best_value
        return KvReply(request_id=request_id, value=visible, version=best_version)

    def _read_repair(
        self,
        key: str,
        best_value: Any,
        best_version: VersionVector,
        best_stamp: Any,
        replies: List[Tuple[Address, ReplicaRecord]],
        local_record: Any,
    ) -> None:
        """Asynchronously push the winning record to stale quorum members."""
        if best_version.is_zero():
            return
        repair = Replicate(key=key, value=best_value, version=best_version, stamp=best_stamp)
        if local_record is None or local_record.version != best_version:
            self.store.apply(key, best_value, best_version, self.sim.now, best_stamp)
        for peer, reply in replies:
            if reply.version != best_version:
                self.read_repairs += 1
                self.send(peer, repair)

    # ------------------------------------------------------------------
    # replica roles
    # ------------------------------------------------------------------
    def on_q_replica_write(self, msg: ReplicaWrite, src: Address) -> None:
        self.store.apply(msg.key, msg.value, msg.version, self.sim.now)
        self.send(src, KvAck(request_id=msg.request_id))

    def on_q_replica_read(self, msg: ReplicaRead, src: Address) -> None:
        record = self.store.get_record(msg.key)
        fields = () if record is None else (record.value, record.version, record.stamp)
        self.send(src, ReplicaRecord(msg.request_id, *fields))

    #: the replicas' answers to this coordinator
    on_kv_ack = on_q_replica_record = RingServer.take_reply

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
    """A ``ReplicaRecord`` that resolves as ``(peer, record)``, so a
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
    config_class = BaselineConfig
    server_class = QuorumServer
    session_class = RandomReplicaSession
