"""What the baseline deployments share.

Every baseline runs on the ring deployment ChainReaction runs on
(:class:`~repro.cluster.deployment.RingDeployment`), so that benchmark
comparisons measure *protocol* differences, not harness differences.
:class:`BaselineConfig` adds the knobs only baselines have.
:class:`RandomReplicaSession` is the session of the two baselines whose
every replica serves every operation (eventual and quorum). Every
baseline client asks with a :class:`KvGet` or a :class:`KvPut`, and is
answered by a :class:`KvReply`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict

from repro.api import GetResult, PutResult
from repro.cluster.client_base import RetryingOp, RetryingSession
from repro.cluster.config import DeploymentConfig
from repro.errors import ConfigError
from repro.net.message import Message, wire_message
from repro.sim.process import Future
from repro.storage.version import VersionVector

__all__ = [
    "BaselineConfig", "KvAck", "KvGet", "KvPut", "KvReply", "RandomReplicaSession",
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
class BaselineConfig(DeploymentConfig):
    """The shared deployment knobs, plus the baselines' own."""

    # quorum-specific (ignored by the others)
    write_quorum: int = 2
    read_quorum: int = 2
    # eventual-specific
    anti_entropy_interval: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.write_quorum <= self.chain_length:
            raise ConfigError(f"write_quorum {self.write_quorum} out of range")
        if not 1 <= self.read_quorum <= self.chain_length:
            raise ConfigError(f"read_quorum {self.read_quorum} out of range")


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
