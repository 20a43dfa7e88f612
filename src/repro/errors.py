"""Exception hierarchy for the ChainReaction reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the API boundary. Below the root the
hierarchy splits along the axis that matters to a client retry layer:

- :class:`TransientError` — the operation *may* succeed if reissued
  (timeouts, unreachable replicas, chains mid-reconfiguration). All
  transient errors carry ``retryable = True``; the client library's
  :class:`~repro.core.retry.RetryPolicy` keys off exactly this flag.
- :class:`PermanentError` — reissuing the identical request cannot
  help (misconfiguration, unsupported operation, closed session,
  malformed history). ``retryable = False``.

Orthogonally, the *category* classes (:class:`NetworkError`,
:class:`ClusterError`, :class:`StorageError`, :class:`CheckerError`)
group errors by subsystem, as before; concrete errors inherit both a
disposition and a category (e.g. ``RequestTimeout(TransientError,
NetworkError)``), so both ``except TransientError`` and ``except
NetworkError`` keep working.

A server that cannot serve a request does not raise across the
network: it answers with a reply whose ``ok`` is False and whose
``error`` says why (a head mid-sync, a server not responsible for the
key). Such a refusal is always worth another attempt, so the client
retries it as it retries a :class:`RequestTimeout`.
"""

from __future__ import annotations

from typing import ClassVar

__all__ = [
    "ReproError",
    "TransientError",
    "PermanentError",
    "SimulationError",
    "NetworkError",
    "AddressUnknownError",
    "RequestTimeout",
    "ReplicaUnavailable",
    "RemoteError",
    "ClusterError",
    "ChainUnavailableError",
    "NotResponsibleError",
    "StorageError",
    "VersionConflictError",
    "CheckerError",
    "HistoryViolation",
    "ConfigError",
    "UnsupportedOperationError",
    "SessionClosedError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` is the contract with the client retry layer: True
    means reissuing the same request may succeed (the default for
    :class:`TransientError` subclasses), False means it cannot.
    """

    retryable: ClassVar[bool] = False


class TransientError(ReproError):
    """The operation failed now but may succeed if retried."""

    retryable = True


class PermanentError(ReproError):
    """Retrying the identical request cannot succeed."""

    retryable = False


# ----------------------------------------------------------------------
# subsystem categories (disposition-neutral; combined via multiple
# inheritance by the concrete errors below)
# ----------------------------------------------------------------------
class NetworkError(ReproError):
    """Message could not be delivered (partition, dropped link, dead actor)."""


class ClusterError(ReproError):
    """Cluster-level failures: membership, placement, reconfiguration."""


class StorageError(ReproError):
    """Local store failures."""


class CheckerError(PermanentError):
    """The consistency checker was fed a malformed history."""


# ----------------------------------------------------------------------
# concrete errors
# ----------------------------------------------------------------------
class SimulationError(PermanentError):
    """Misuse of the discrete-event kernel (past scheduling, reentrancy, livelock)."""


class AddressUnknownError(PermanentError, NetworkError):
    """Destination address was never registered with the network."""


class RequestTimeout(TransientError, NetworkError):
    """An RPC did not receive a response within its deadline."""


class ReplicaUnavailable(TransientError, NetworkError):
    """The replica cannot serve the request right now (crashed endpoint,
    mid-sync server, or chain position lost in a reconfiguration)."""


class RemoteError(TransientError, NetworkError):
    """The remote side failed to handle a request."""


class ChainUnavailableError(TransientError, ClusterError):
    """No live replica chain exists for the requested key."""


class NotResponsibleError(TransientError, ClusterError):
    """A server received a request for a key outside the chains it serves."""


class VersionConflictError(PermanentError, StorageError):
    """A conditional update observed a newer version than expected."""


class HistoryViolation(CheckerError):
    """A recorded history violates the consistency model being checked.

    Raised only in ``strict`` mode; the default checker API returns the
    violations as data so tests and benchmarks can count them.
    """


class ConfigError(PermanentError):
    """Invalid experiment or protocol configuration."""


class UnsupportedOperationError(PermanentError):
    """The protocol does not implement this optional operation.

    Callers should consult :attr:`repro.api.Datastore.capabilities`
    instead of probing with try/except.
    """


class SessionClosedError(PermanentError):
    """An operation was issued on a session after ``close()``."""
