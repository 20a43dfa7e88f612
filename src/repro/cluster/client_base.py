"""Shared scaffolding for client sessions of ring-placed deployments.

Every protocol's client session — ChainReaction's and the baselines' —
shares the same survival kit, factored here so fault tolerance is a
property of the *harness*, not of one protocol:

- addressing and a seeded per-session RNG stream,
- a :class:`~repro.core.retry.RetryPolicy` derived from the deployment
  config (bounded attempts, per-op deadline, seeded-jitter exponential
  backoff),
- failover re-resolution: after every failed attempt the session
  refreshes its ring view from the site's cluster manager, so retries
  re-route around crashed heads/tails once the failure detector fires,
- an explicit lifecycle: ``close()`` detaches the session from the
  network (late replies are dropped, not mis-delivered) and fails every
  operation awaiting a reply with :class:`~repro.errors.SessionClosedError`.

Protocol sessions implement only their operations, as
:class:`RetryingOp` subclasses: one ``_try`` per attempt, and the
:class:`_BackoffRefresh` step between two attempts.
"""

from __future__ import annotations

import random
from typing import Any

from repro.api import ClientSession
from repro.cluster.membership import GetView, RingView, ViewReply
from repro.core.retry import RetryPolicy
from repro.errors import RequestTimeout, SessionClosedError
from repro.net.actor import Actor
from repro.net.network import Address, Network
from repro.sim.kernel import Simulator
from repro.sim.process import Future

__all__ = ["RetryingOp", "RetryingSession"]


class RetryingSession(Actor, ClientSession):
    """Actor-based client session with retry, failover, and lifecycle."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site: str,
        name: str,
        initial_view: RingView,
        config: Any,
        rng: random.Random,
    ) -> None:
        super().__init__(sim, network, Address(site, name))
        self.site = site
        self.session_id = f"{site}:{name}"
        self.view = initial_view
        self.config = config
        self._rng = rng
        self._manager = Address(site, "manager")
        self.retry_policy = RetryPolicy.from_config(config)
        self.closed = False
        # observability: exported into campaign outcome accounting
        self.retries = 0
        self.failed_ops = 0
        self.degraded_reads = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the network and fail every entry of the deadline
        table at once, as :meth:`crash` does: each operation awaiting a
        reply ends with ``SessionClosedError`` — no backoff, nothing
        counted in ``retries`` or ``failed_ops``."""
        if self.closed:
            return
        self.closed = True
        self.network.set_down(self.address, True)
        self._fail_rpcs(SessionClosedError, f"session {self.session_id} closed")

    #: the manager's answers to view requests
    on_view_reply = Actor.take_reply

    # ------------------------------------------------------------------
    # retry machinery
    # ------------------------------------------------------------------
    def _may_attempt(self, attempt: int, start: float) -> bool:
        """Whether attempt number ``attempt`` of an operation begun at
        ``start`` fits the budget and deadline; the first always does."""
        policy = self.retry_policy
        return attempt < policy.max_attempts and not (
            attempt and policy.out_of_time(start, self.sim.now)
        )

    def _give_up(self, op: str, key: str) -> "RequestTimeout":
        """Terminal failure for one operation (the caller raises it)."""
        self.failed_ops += 1
        return RequestTimeout(
            f"{op}({key!r}) exhausted its retry budget "
            f"({self.retry_policy.max_attempts} attempts"
            + (
                f", {self.retry_policy.deadline}s deadline)"
                if self.retry_policy.deadline
                else ")"
            )
        )


class _BackoffRefresh(Future):
    """The step between two attempts: back off (seeded-jitter
    exponential), then refresh the ring view from the cluster manager so
    the next attempt re-resolves chain positions against the newest
    membership. Resolves (to None) when the next attempt may run.
    """

    __slots__ = ("_session",)

    def __init__(self, session: RetryingSession, attempt: int) -> None:
        super().__init__(session.sim)
        self._session = session
        session.retries += 1
        delay = session.retry_policy.backoff(attempt, session._rng)
        refresh = (self, session.config.op_timeout, session._manager, GetView)
        if delay > 0.0:
            session.sim.post(delay, session.ask, *refresh)
        else:
            session.ask(*refresh)

    def rpc_reply(self, reply: ViewReply) -> None:
        view = reply.view
        if view is not None and view.epoch > self._session.view.epoch:
            self._session.view = view
        self.set_result(None)

    def rpc_failed(self, exc: BaseException) -> None:
        self.set_result(None)  # manager briefly unreachable; retry with the stale view


class RetryingOp(Future):
    """One client operation in continuation form: the future a session
    hands out *is* the operation. It carries the attempt counter, runs
    one ``_try`` per attempt and resolves itself. Subclasses implement
    ``_try`` and call ``_retry`` when another attempt might help.

    The session runs the first attempt inline, right after construction
    (``__init__`` runs before a subclass has set its own fields):
    ``op = _GetOp(...); op._try()``. No event stands between the call
    and the first message.
    """

    __slots__ = ("_session", "_op", "_key", "_start", "_attempt")

    def __init__(self, session: RetryingSession, op: str, key: str) -> None:
        super().__init__(session.sim)
        self._session = session
        self._op = op
        self._key = key
        self._start = session.sim.now
        self._attempt = 0

    def _try(self) -> None:
        """Issue attempt number ``self._attempt``."""
        raise NotImplementedError

    def _retry(self) -> None:
        """The attempt failed or was refused: back off, refresh the view,
        then run the next attempt — or give up. On a closed session no
        attempt can be answered, so the operation ends here."""
        session = self._session
        if session.closed:
            self.set_exception(SessionClosedError(f"session {session.session_id} closed"))
            return
        _BackoffRefresh(session, self._attempt).add_callback(self._next_attempt)

    def _next_attempt(self, _step: Future) -> None:
        self._attempt += 1
        session = self._session
        if session._may_attempt(self._attempt, self._start):
            self._try()
        else:
            self.set_exception(session._give_up(self._op, self._key))

    def rpc_failed(self, exc: BaseException) -> None:
        # A timeout, a crash, or the session closed: _retry checks that first.
        self._retry()
