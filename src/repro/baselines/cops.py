"""COPS-like baseline: causal+ via explicit per-write dependency checking.

COPS (Lloyd et al., SOSP'11) is the system ChainReaction positions
itself against. Keys are partitioned — exactly one replica per key per
datacenter (the ring head) — and the client library tracks a context of
versions it has observed. A put carries that context as its dependency
list; the local partition owner commits immediately (local operations
are always fast), and replicates the write to the key's owner in every
other DC, where it is applied only after each listed dependency is
already present — ``dep_check`` in COPS terms.

Contrast with ChainReaction: causality here is enforced *per replicated
write at the destination*, while ChainReaction enforces it *once at the
origin* via DC-stability and then lets reads fan out over R replicas.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.api import GetResult, PutResult
from repro.baselines.common import BaselineConfig, KvAck, KvGet, KvPut, KvReply
from repro.cluster.client_base import RetryingOp, RetryingSession
from repro.cluster.deployment import RingDeployment
from repro.cluster.membership import RingView
from repro.cluster.server_base import RingServer
from repro.net.message import Message, wire_message
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future, all_of
from repro.storage.store import TOMBSTONE
from repro.storage.version import VersionVector

__all__ = ["CopsStore", "CopsServer", "CopsSession"]

#: context entries carried per put — wire size for the metadata experiment
def context_size_bytes(context: Dict[str, VersionVector]) -> int:
    return 4 + sum(4 + len(k) + vv.size_bytes() for k, vv in context.items())


@wire_message
class RemoteWrite(Message):
    """Cross-DC replication of one write with its dependency list."""

    type_name: ClassVar[str] = "cops-remote-write"
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    deps: Dict[str, VersionVector] = dataclasses.field(default_factory=dict)
    origin_site: str = ""
    origin_put_at: float = 0.0


@wire_message
class DepCheck(Message):
    """Remote-write applier → a dependency's owner in the same DC: answer
    (a :class:`~repro.baselines.common.KvAck`) once you hold ``version``
    of ``key``."""

    type_name: ClassVar[str] = "cops-dep-check"
    request_id: int = 0
    key: str = ""
    version: VersionVector = dataclasses.field(default_factory=VersionVector)


class CopsServer(RingServer):
    """Partition owner: one authoritative copy per key per datacenter."""

    SERVICED_TYPES = frozenset({"kv-get", "kv-put", "cops-dep-check", "cops-remote-write"})

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        config: BaselineConfig,
        deployment: "CopsStore",
    ) -> None:
        super().__init__(
            sim, network, site, name, initial_view, service_time=config.service_time
        )
        self.config = config
        self.deployment = deployment
        self._waiters: Dict[str, List[Tuple[VersionVector, Future]]] = {}
        self.puts_served = 0
        self.gets_served = 0
        self.remote_applies = 0
        self.dep_checks = 0
        self.visibility_samples: List[float] = []

    def _owner_of(self, key: str, view: RingView) -> str:
        return view.chain_for(key)[0]

    def _refused(self, msg: Any, src: Address) -> bool:
        """Refuse ``msg`` (and say so) unless this server owns its key."""
        if self._owner_of(msg.key, self.view) == self.name:
            return False
        self.send(src, KvReply(request_id=msg.request_id, ok=False, error="not-owner"))
        return True

    # ------------------------------------------------------------------
    # client operations (always local, always fast)
    # ------------------------------------------------------------------
    def on_kv_put(self, msg: KvPut, src: Address) -> None:
        if self._refused(msg, src):
            return
        key = msg.key
        stored_value = TOMBSTONE if msg.is_delete else msg.value
        previous = self.store.version_of(key)
        version = previous.increment(self.site)
        # The same-key predecessor is an implicit dependency even when
        # the writing client never read the key: this write overwrites
        # it, so remote owners must not make it visible before the
        # predecessor (and, transitively, *its* dependencies) arrived.
        deps = dict(msg.deps)
        if not previous.is_zero():
            existing = deps.get(key)
            deps[key] = previous if existing is None else existing.merge(previous)
        self._apply(key, stored_value, version)
        self.puts_served += 1
        write = RemoteWrite(
            key=key,
            value=stored_value,
            version=version,
            deps=deps,
            origin_site=self.site,
            origin_put_at=self.sim.now,
        )
        for site, view in self.deployment.all_views().items():
            if site != self.site:
                self.send(view.address_of(self._owner_of(key, view)), write)
        self.send(src, KvReply(request_id=msg.request_id, version=version))

    def on_kv_get(self, msg: KvGet, src: Address) -> None:
        if self._refused(msg, src):
            return
        self.gets_served += 1
        self.send(src, KvReply.of_record(msg.request_id, self.store.get_record(msg.key)))

    # ------------------------------------------------------------------
    # dependency checks and remote application
    # ------------------------------------------------------------------
    def on_cops_dep_check(self, msg: DepCheck, src: Address) -> None:
        request_id = msg.request_id
        self._dep_check(msg.key, msg.version).add_callback(
            lambda _checked: self.send(src, KvAck(request_id=request_id))
        )

    #: the answers to this server's remote dependency checks
    on_kv_ack = RingServer.take_reply

    def _dep_check(self, key: str, wanted: VersionVector) -> Future:
        """Resolve once this owner holds a version dominating ``wanted``."""
        self.dep_checks += 1
        fut = Future(self.sim)
        if self.store.version_of(key).dominates(wanted):
            fut.set_result(True)
        else:
            self._waiters.setdefault(key, []).append((wanted, fut))
        return fut

    def _apply(self, key: str, value: Any, version: VersionVector) -> None:
        self.store.apply(key, value, version, self.sim.now)
        waiters = self._waiters.get(key)
        if not waiters:
            return
        current = self.store.version_of(key)
        remaining = []
        for wanted, fut in waiters:
            if current.dominates(wanted):
                fut.try_set_result(True)
            else:
                remaining.append((wanted, fut))
        if remaining:
            self._waiters[key] = remaining
        else:
            # A resolved check may have applied a same-key write inline
            # (its callbacks run at once) and settled the entry already.
            self._waiters.pop(key, None)

    def on_cops_remote_write(self, msg: RemoteWrite, src: Address) -> None:
        """Apply a replicated write once every listed dependency is
        present here (``dep_check`` at each dependency's owner, joined by
        ``all_of``). A failed check drops the write."""
        if not msg.deps:
            self._apply_remote(msg)
            return
        checks = []
        for dep_key, wanted in msg.deps.items():
            owner = self.view.address_of(self._owner_of(dep_key, self.view))
            if owner == self.address:
                checks.append(self._dep_check(dep_key, wanted))
                continue
            check = Future(self.sim)
            self.ask(check, self.config.op_timeout * 5, owner, DepCheck, dep_key, wanted)
            checks.append(check)
        all_of(self.sim, checks).add_callback(
            lambda checked: None if checked.failed() else self._apply_remote(msg)
        )

    def _apply_remote(self, msg: RemoteWrite) -> None:
        self._apply(msg.key, msg.value, msg.version)
        self.remote_applies += 1
        self.visibility_samples.append(self.sim.now - msg.origin_put_at)


class CopsSession(RetryingSession):
    """COPS client library: context tracking with collapse-on-put."""

    #: the owners' answers
    on_kv_reply = RetryingSession.take_reply

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._context: Dict[str, VersionVector] = {}

    def metadata_bytes(self) -> int:
        return context_size_bytes(self._context)

    def _owner(self, key: str) -> Address:
        return self.view.address_of(self.view.chain_for(key)[0])

    def get(self, key: str) -> Future:
        self._check_open()
        op = _CopsGet(self, "get", key)
        op._try()
        return op

    def put(self, key: str, value: Any) -> Future:
        return self._write(key, value, False)

    def delete(self, key: str) -> Future:
        return self._write(key, None, True)

    def _write(self, key: str, value: Any, is_delete: bool) -> Future:
        self._check_open()
        op = _CopsPut(self, key, value, is_delete)
        op._try()
        return op


class _CopsGet(RetryingOp):
    """A get at the key's owner; a non-zero version joins the context."""

    __slots__ = ()

    _session: CopsSession

    def _try(self) -> None:
        session = self._session
        session.ask(self, session.config.op_timeout, session._owner(self._key), KvGet, self._key)

    def rpc_reply(self, reply: KvReply) -> None:
        if not reply.ok:
            self._retry()
            return
        key = self._key
        version = reply.version
        if not version.is_zero():
            context = self._session._context
            context[key] = context.get(key, VersionVector()).merge(version)
        self.set_result(GetResult(key=key, value=reply.value, version=version, stable=True))


class _CopsPut(RetryingOp):
    """A put or delete at the key's owner, carrying the session's context
    as its dependency list; the new write then replaces the context."""

    __slots__ = ("_new_value", "_is_delete", "_deps")

    _session: CopsSession

    def __init__(self, session: CopsSession, key: str, value: Any, is_delete: bool) -> None:
        super().__init__(session, "delete" if is_delete else "put", key)
        self._new_value = value
        self._is_delete = is_delete
        # Include the same-key context version: remote owners must apply
        # this write only after the observed predecessor (and hence its
        # transitive dependencies) has arrived there.
        self._deps = dict(session._context)

    def _try(self) -> None:
        session = self._session
        session.ask(
            self, session.config.op_timeout, session._owner(self._key), KvPut,
            self._key, self._new_value, self._is_delete, self._deps,
        )

    def rpc_reply(self, reply: KvReply) -> None:
        if not reply.ok:
            self._retry()
            return
        version = reply.version
        # put_after semantics: the new write subsumes the context.
        self._session._context = {self._key: version}
        self.set_result(PutResult(key=self._key, version=version, stable=True))


class CopsStore(RingDeployment):
    """Deployment facade for the COPS-like baseline.

    ``chain_length`` is forced to 1: COPS keeps exactly one copy per key
    per datacenter; fault tolerance comes from having multiple DCs.
    """

    name = "cops"
    server_class = CopsServer
    session_class = CopsSession

    def __init__(self, config: Optional[BaselineConfig] = None) -> None:
        super().__init__(
            (config or BaselineConfig()).with_updates(chain_length=1, write_quorum=1, read_quorum=1)
        )

    def protocol_stats(self) -> Dict[str, Any]:
        stats = super().protocol_stats()
        servers = self.servers()
        stats["visibility_samples"] = [
            s for server in servers for s in server.visibility_samples
        ]
        stats["dep_checks"] = sum(server.dep_checks for server in servers)
        return stats
