"""Eventually-consistent baseline (Dynamo-flavoured multi-master).

The contrast point for ChainReaction's throughput numbers: any replica
accepts a write and acknowledges immediately, replication is fully
asynchronous (including cross-DC), reads hit one random replica, and a
push-pull anti-entropy protocol repairs whatever direct replication
missed. No ordering is enforced anywhere, so it is fast — and the E10
consistency table shows the causal and session anomalies it serves.

Convergence still holds (it is *eventually* consistent) because every
replica applies writes through the convergent versioned store.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, ClassVar, Dict, Tuple

from repro.baselines.common import (
    BaselineConfig,
    KvGet,
    KvPut,
    KvReply,
    RandomReplicaSession,
)
from repro.cluster.deployment import RingDeployment
from repro.cluster.membership import RingView
from repro.cluster.server_base import RingServer
from repro.net.message import Message, wire_message
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import derive_seed
from repro.storage.store import TOMBSTONE
from repro.storage.version import VersionVector

__all__ = ["EventualStore", "EventualServer"]


@wire_message
class Replicate(Message):
    """Asynchronous replication of one write to a peer replica.

    ``stamp`` is None when ``version`` is the write's original vector
    (the receiver derives the stamp); read repair and other merged-
    record paths set it explicitly.
    """

    type_name: ClassVar[str] = "ev-replicate"
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    stamp: Any = None


@wire_message
class AeDigest(Message):
    """Anti-entropy round: sender's key→version digest."""

    type_name: ClassVar[str] = "ev-ae-digest"
    digest: Dict[str, VersionVector] = dataclasses.field(default_factory=dict)
    wants_reply: bool = True


@wire_message
class AeRecords(Message):
    """Anti-entropy round: records the peer was missing."""

    type_name: ClassVar[str] = "ev-ae-records"
    records: Tuple = ()


class EventualServer(RingServer):
    """A replica that accepts any read or write and gossips repairs."""

    SERVICED_TYPES = frozenset(
        {"kv-get", "kv-put", "ev-replicate", "ev-ae-digest", "ev-ae-records"}
    )

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        config: BaselineConfig,
        deployment: "EventualStore",
    ) -> None:
        super().__init__(
            sim, network, site, name, initial_view, service_time=config.service_time
        )
        self.config = config
        self.deployment = deployment
        # derive_seed (not builtin hash()) keeps the anti-entropy stream
        # identical across PYTHONHASHSEED values.
        self._ae_rng = random.Random(
            derive_seed(config.seed, f"anti-entropy:{site}:{name}")
        )
        self.puts_served = 0
        self.gets_served = 0
        self.anti_entropy_rounds = 0
        self.set_timer(config.anti_entropy_interval, self._anti_entropy_tick)

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def on_kv_put(self, msg: KvPut, src: Address) -> None:
        key = msg.key
        stored_value = TOMBSTONE if msg.is_delete else msg.value
        version = self.store.version_of(key).increment(str(self.address))
        self.store.apply(key, stored_value, version, self.sim.now)
        self.puts_served += 1
        self._replicate(key, stored_value, version)
        self.send(src, KvReply(request_id=msg.request_id, version=version))

    def on_kv_get(self, msg: KvGet, src: Address) -> None:
        self.gets_served += 1
        self.send(src, KvReply.of_record(msg.request_id, self.store.get_record(msg.key)))

    def _replicate(self, key: str, value: Any, version: VersionVector) -> None:
        """Fire-and-forget fan-out to every other replica, in every DC."""
        msg = Replicate(key=key, value=value, version=version)
        for site, view in self.deployment.all_views().items():
            for server in view.chain_for(key):
                if site == self.site and server == self.name:
                    continue
                self.send(view.address_of(server), msg)

    def on_ev_replicate(self, msg: Replicate, src: Address) -> None:
        self.store.apply(msg.key, msg.value, msg.version, self.sim.now, msg.stamp)

    # ------------------------------------------------------------------
    # anti-entropy
    # ------------------------------------------------------------------
    def _anti_entropy_tick(self) -> None:
        peer = self._pick_peer()
        if peer is not None:
            self.anti_entropy_rounds += 1
            self.send(peer, AeDigest(digest=self.store.digest(), wants_reply=True))
        self.set_timer(self.config.anti_entropy_interval, self._anti_entropy_tick)

    def _pick_peer(self) -> Address:
        """Mostly a local peer; occasionally a remote one (geo repair)."""
        views = self.deployment.all_views()
        local = [s for s in views[self.site].servers if s != self.name]
        remote_sites = [s for s in views if s != self.site]
        if remote_sites and self._ae_rng.random() < 0.2:
            site = self._ae_rng.choice(remote_sites)
            return views[site].address_of(self._ae_rng.choice(list(views[site].servers)))
        if not local:
            return None
        return views[self.site].address_of(self._ae_rng.choice(local))

    def on_ev_ae_digest(self, msg: AeDigest, src: Address) -> None:
        missing = self.store.records_newer_than(msg.digest)
        if missing:
            self.send(
                src,
                AeRecords(
                    records=tuple(
                        (r.key, r.value, r.version, r.stamp) for r in missing
                    )
                ),
            )
        if msg.wants_reply:
            self.send(src, AeDigest(digest=self.store.digest(), wants_reply=False))

    def on_ev_ae_records(self, msg: AeRecords, src: Address) -> None:
        for key, value, version, stamp in msg.records:
            self.store.apply(key, value, version, self.sim.now, stamp)


class EventualStore(RingDeployment):
    """Deployment facade for the eventually-consistent baseline."""

    name = "eventual"
    config_class = BaselineConfig
    server_class = EventualServer
    session_class = RandomReplicaSession
