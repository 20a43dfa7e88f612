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
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Tuple

from repro.api import GetResult, PutResult
from repro.baselines.common import BaselineConfig, RingDeployment
from repro.cluster.client_base import RetryingSession
from repro.cluster.membership import RingView
from repro.cluster.server_base import RingServer
from repro.errors import NotResponsibleError, TransientError
from repro.net.message import Message, wire_message
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future, all_of, spawn
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


class CopsServer(RingServer):
    """Partition owner: one authoritative copy per key per datacenter."""

    SERVICED_TYPES = frozenset({"rpc-request", "cops-remote-write"})

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

    def _check_owner(self, key: str) -> None:
        if self._owner_of(key, self.view) != self.name:
            raise NotResponsibleError(f"{self.name} does not own {key!r}")

    # ------------------------------------------------------------------
    # client operations (always local, always fast)
    # ------------------------------------------------------------------
    def rpc_put(
        self, payload: Tuple[str, Any, bool, Dict[str, VersionVector]], src: Address
    ) -> Dict[str, Any]:
        key, value, is_delete, deps = payload
        self._check_owner(key)
        stored_value = TOMBSTONE if is_delete else value
        previous = self.store.version_of(key)
        version = previous.increment(self.site)
        # The same-key predecessor is an implicit dependency even when
        # the writing client never read the key: this write overwrites
        # it, so remote owners must not make it visible before the
        # predecessor (and, transitively, *its* dependencies) arrived.
        deps = dict(deps)
        if not previous.is_zero():
            existing = deps.get(key)
            deps[key] = previous if existing is None else existing.merge(previous)
        self._apply(key, stored_value, version)
        self.puts_served += 1
        msg = RemoteWrite(
            key=key,
            value=stored_value,
            version=version,
            deps=deps,
            origin_site=self.site,
            origin_put_at=self.sim.now,
        )
        for site, view in self.deployment.all_views().items():
            if site != self.site:
                self.send(view.address_of(self._owner_of(key, view)), msg)
        return {"version": version}

    def rpc_get(self, key: str, src: Address) -> Dict[str, Any]:
        self._check_owner(key)
        self.gets_served += 1
        record = self.store.get_record(key)
        if record is None:
            return {"value": None, "version": VersionVector()}
        return {
            "value": None if record.is_deleted else record.value,
            "version": record.version,
        }

    # ------------------------------------------------------------------
    # dependency checks and remote application
    # ------------------------------------------------------------------
    def rpc_dep_check(
        self, payload: Tuple[str, Dict[str, int]], src: Address
    ) -> Future:
        """Resolve once this owner holds a version dominating the request."""
        key, entries = payload
        self.dep_checks += 1
        wanted = VersionVector(entries)
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
            del self._waiters[key]

    def on_cops_remote_write(self, msg: RemoteWrite, src: Address) -> None:
        spawn(self.sim, self._apply_remote(msg), name=f"cops-remote:{msg.key}")

    def _apply_remote(self, msg: RemoteWrite) -> Iterator[Any]:
        if msg.deps:
            checks = []
            for dep_key, wanted in msg.deps.items():
                owner = self.view.address_of(self._owner_of(dep_key, self.view))
                if owner == self.address:
                    checks.append(self.rpc_dep_check((dep_key, wanted.entries()), owner))
                else:
                    checks.append(
                        self.call(
                            owner,
                            "dep_check",
                            (dep_key, wanted.entries()),
                            timeout=self.config.op_timeout * 5,
                        )
                    )
            yield all_of(self.sim, checks)
        self._apply(msg.key, msg.value, msg.version)
        self.remote_applies += 1
        self.visibility_samples.append(self.sim.now - msg.origin_put_at)


class CopsSession(RetryingSession):
    """COPS client library: context tracking with collapse-on-put."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._context: Dict[str, VersionVector] = {}

    def metadata_bytes(self) -> int:
        return context_size_bytes(self._context)

    def _owner(self, key: str) -> Address:
        return self.view.address_of(self.view.chain_for(key)[0])

    def get(self, key: str) -> Future:
        self._check_open()
        return spawn(self.sim, self._get_gen(key), name=f"get:{key}")

    def put(self, key: str, value: Any) -> Future:
        self._check_open()
        return spawn(self.sim, self._put_gen(key, value, False), name=f"put:{key}")

    def delete(self, key: str) -> Future:
        self._check_open()
        return spawn(self.sim, self._put_gen(key, None, True), name=f"del:{key}")

    def _get_gen(self, key: str) -> Iterator[Any]:
        start = self.sim.now
        for attempt in self._op_attempts(start):
            try:
                reply = yield self.call(
                    self._owner(key), "get", key, timeout=self.config.op_timeout
                )
            except TransientError as exc:
                yield from self._backoff_and_refresh(attempt, exc)
                continue
            version = reply["version"]
            if not version.is_zero():
                self._context[key] = self._context.get(key, VersionVector()).merge(version)
            return GetResult(
                key=key, value=reply["value"], version=version, stable=True
            )
        raise self._give_up("get", key)

    def _put_gen(self, key: str, value: Any, is_delete: bool) -> Iterator[Any]:
        # Include the same-key context version: remote owners must apply
        # this write only after the observed predecessor (and hence its
        # transitive dependencies) has arrived there.
        deps = dict(self._context)
        start = self.sim.now
        for attempt in self._op_attempts(start):
            try:
                reply = yield self.call(
                    self._owner(key),
                    "put",
                    (key, value, is_delete, deps),
                    timeout=self.config.op_timeout,
                )
            except TransientError as exc:
                yield from self._backoff_and_refresh(attempt, exc)
                continue
            version = reply["version"]
            # put_after semantics: the new write subsumes the context.
            self._context = {key: version}
            return PutResult(key=key, version=version, stable=True)
        raise self._give_up("delete" if is_delete else "put", key)


class CopsStore(RingDeployment):
    """Deployment facade for the COPS-like baseline.

    ``chain_length`` is forced to 1: COPS keeps exactly one copy per key
    per datacenter; fault tolerance comes from having multiple DCs.
    """

    name = "cops"

    def __init__(
        self,
        config: Optional[BaselineConfig] = None,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
    ) -> None:
        config = (config or BaselineConfig()).with_updates(
            chain_length=1, write_quorum=1, read_quorum=1
        )
        super().__init__(
            config,
            server_factory=CopsServer,
            session_factory=CopsSession,
            sim=sim,
            network=network,
        )

    def protocol_stats(self) -> Dict[str, Any]:
        stats = super().protocol_stats()
        servers = self.servers()
        stats["visibility_samples"] = [
            s for server in servers for s in server.visibility_samples
        ]
        stats["dep_checks"] = sum(server.dep_checks for server in servers)
        return stats
