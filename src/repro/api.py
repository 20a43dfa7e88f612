"""Protocol-agnostic datastore API.

Workload drivers, consistency checkers, examples, and benchmarks are all
written against these two abstractions, so every protocol in the
repository — ChainReaction and the baselines — is interchangeable under
the same harness:

- :class:`Datastore` — a running deployment (servers, managers,
  geo-proxies) from which client sessions are opened.
- :class:`ClientSession` — a sequential client. Operations return
  :class:`~repro.sim.process.Future` objects resolving to
  :class:`GetResult` / :class:`PutResult`, because everything executes
  on the discrete-event simulator.

Sessions are *not* thread-safe in the distributed-systems sense: like
the paper's client library, a session has at most one outstanding
operation; concurrency comes from opening many sessions.

Optional protocol features are advertised through
:attr:`Datastore.capabilities`, a frozenset of the ``CAP_*`` strings
below. Harness code branches on membership (``CAP_SNAPSHOT_READS in
store.capabilities``) instead of probing optional methods with
try/except; calling an unsupported operation raises
:class:`~repro.errors.UnsupportedOperationError`.

Sessions have an explicit lifecycle: they are context managers, and a
deployment tracks every session it opened (:meth:`Datastore.sessions`)
so :meth:`Datastore.shutdown` can close them all at once.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import SessionClosedError, UnsupportedOperationError
from repro.sim.process import Future
from repro.storage.version import VersionVector

__all__ = [
    "CAP_SNAPSHOT_READS",
    "CAP_DEGRADED_READS",
    "CAP_TRACING",
    "CAP_STABILITY",
    "CAP_DURABLE_STORAGE",
    "CAP_CLOCK_STABILITY",
    "GetResult",
    "PutResult",
    "SnapshotResult",
    "ClientSession",
    "Datastore",
]

#: Causally consistent multi-key snapshots (``ClientSession.multi_get``).
CAP_SNAPSHOT_READS = "snapshot-reads"
#: Reads may fall back to possibly-unstable versions from deeper chain
#: positions under failures, flagged via ``GetResult.degraded``.
CAP_DEGRADED_READS = "degraded-reads"
#: Structured protocol tracing (``store.attach_tracer()``).
CAP_TRACING = "tracing"
#: The protocol exposes a DC-stability notion (``GetResult.stable`` is
#: meaningful rather than constant).
CAP_STABILITY = "stability"
#: Servers can be backed by the append-only durable log store.
CAP_DURABLE_STORAGE = "durable-storage"
#: Stability is driven by the clock plane (HLC stamps + periodic
#: stability vectors) instead of per-write notification streams.
CAP_CLOCK_STABILITY = "clock-stability"


@dataclasses.dataclass(frozen=True)
class GetResult:
    """Outcome of a read.

    ``value`` is None when the key is absent (or deleted); ``version``
    is then the zero vector. ``stable`` reports whether the returned
    version was already DC-stable where supported (protocols without a
    stability notion report True). ``degraded`` marks a read served in
    degraded mode: the preferred replicas were unreachable and the
    value may predate versions this session already observed — the
    fault-tolerance trade the client makes explicit instead of raising.
    """

    key: str
    value: Any
    version: VersionVector
    stable: bool = True
    served_by: str = ""
    degraded: bool = False


@dataclasses.dataclass(frozen=True)
class PutResult:
    """Outcome of a write: the version the system assigned to it."""

    key: str
    version: VersionVector
    stable: bool = False
    acked_by: str = ""


@dataclasses.dataclass(frozen=True)
class SnapshotResult:
    """Outcome of a causally consistent multi-key read.

    ``values``/``versions`` cover every requested key (absent keys map
    to None / the zero vector). ``rounds`` reports how many read rounds
    the snapshot needed to become mutually consistent.
    """

    values: Dict[str, Any]
    versions: Dict[str, VersionVector]
    rounds: int = 1

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


class ClientSession:
    """One sequential client of a datastore.

    Sessions are context managers::

        with store.session() as alice:
            fut = alice.put("photo", "beach.jpg")
            store.run(until=1.0)

    After :meth:`close`, issuing operations raises
    :class:`~repro.errors.SessionClosedError`.
    """

    #: Stable identifier used by the history checker to group operations.
    session_id: str

    #: True once :meth:`close` ran; closed sessions reject operations.
    closed: bool = False

    def get(self, key: str) -> Future:
        """Read ``key``; resolves to :class:`GetResult`."""
        raise NotImplementedError

    def multi_get(self, keys: Sequence[str]) -> Future:
        """Causally consistent snapshot of several keys; resolves to
        :class:`SnapshotResult`. Optional — offered only by protocols
        advertising :data:`CAP_SNAPSHOT_READS`."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support snapshot reads "
            f"(check CAP_SNAPSHOT_READS in store.capabilities)"
        )

    def put(self, key: str, value: Any) -> Future:
        """Write ``key``; resolves to :class:`PutResult`."""
        raise NotImplementedError

    def delete(self, key: str) -> Future:
        """Delete ``key``; resolves to :class:`PutResult` (tombstone write)."""
        raise NotImplementedError

    def metadata_bytes(self) -> int:
        """Current wire size of the session's causality metadata (0 when
        the protocol keeps none). Drives the metadata-overhead experiment."""
        return 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session; idempotent. Subclasses extend this to
        detach from the network and fail in-flight operations."""
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError(f"session {getattr(self, 'session_id', '?')} is closed")

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Datastore:
    """A running deployment of one protocol."""

    #: Human-readable protocol name ("chainreaction", "chain", ...).
    name: str

    #: Optional features this deployment supports (``CAP_*`` strings).
    capabilities: frozenset = frozenset()

    def session(self, site: Optional[str] = None, session_id: Optional[str] = None) -> ClientSession:
        """Open a new client session homed in ``site`` (default: first site)."""
        raise NotImplementedError

    def sessions(self) -> List[ClientSession]:
        """Every session opened on this deployment that is still open."""
        return [s for s in getattr(self, "_sessions", []) if not s.closed]

    def shutdown(self) -> None:
        """Close every open session. Idempotent; the deployment itself
        (servers, managers) keeps running so post-shutdown inspection —
        convergence checks, audits — still works."""
        for session in self.sessions():
            session.close()

    def __enter__(self) -> "Datastore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def sites(self) -> List[str]:
        raise NotImplementedError

    def servers(self, site: Optional[str] = None) -> List[Any]:
        """The server actors (for failure injection and state inspection)."""
        raise NotImplementedError

    def converged(self, key: str) -> bool:
        """True when every replica of ``key`` holds an identical record —
        the convergence half of causal+, used by tests and E10."""
        raise NotImplementedError
