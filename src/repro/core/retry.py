"""Client-side retry policy: bounded attempts, deadlines, seeded backoff.

Every client session retries transient failures (timeouts, unreachable
or mid-sync replicas) under one :class:`RetryPolicy`:

- **bounded attempts** — at most ``max_attempts`` tries per operation;
- **a per-operation deadline** — optional wall on total (virtual) time
  an operation may spend across all attempts, so a client stuck behind
  a dead chain gives up predictably instead of burning its whole
  attempt budget at max backoff;
- **exponential backoff with deterministic jitter** — attempt ``i``
  sleeps ``min(MAX_BACKOFF, base * BACKOFF_MULTIPLIER**i)``, scaled by a jitter
  factor drawn from the session's *seeded* RNG stream. Same seed ⇒ same
  retry schedule, which is what keeps fault campaigns bit-reproducible
  (see ``python -m repro sanitize`` / ``python -m repro faults``).

The policy is derived from the deployment config
(:meth:`RetryPolicy.from_config`): its ``max_retries`` /
``client_retry_backoff`` / ``backoff_jitter`` / ``op_deadline`` knobs.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, List

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.config import DeploymentConfig

__all__ = ["BACKOFF_MULTIPLIER", "MAX_BACKOFF", "RetryPolicy"]

#: growth factor of the backoff sleep per attempt
BACKOFF_MULTIPLIER = 2.0
#: cap on one backoff sleep (seconds), applied before jitter
MAX_BACKOFF = 0.5


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff parameters for one client session.

    Attributes:
        max_attempts: attempts per operation before it fails.
        base_backoff: sleep before the second attempt (seconds).
        jitter: symmetric jitter fraction; each sleep is scaled by a
            factor uniform in ``[1 - jitter, 1 + jitter]`` drawn from
            the session's seeded RNG. 0 disables jitter.
        deadline: per-operation budget across all attempts (virtual
            seconds); 0 disables the deadline.
    """

    max_attempts: int = 25
    base_backoff: float = 0.02
    jitter: float = 0.1
    deadline: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff < 0:
            raise ConfigError("base_backoff must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.deadline < 0:
            raise ConfigError("deadline must be >= 0 (0 = disabled)")

    @classmethod
    def from_config(cls, config: DeploymentConfig) -> "RetryPolicy":
        """Build the policy a deployment config's client knobs imply."""
        return cls(
            max_attempts=config.max_retries,
            base_backoff=config.client_retry_backoff,
            jitter=config.backoff_jitter,
            deadline=config.op_deadline,
        )

    # ------------------------------------------------------------------
    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retrying after failed attempt number ``attempt``.

        Deterministic given the RNG state: the jitter factor is the only
        random input, and it comes from the caller's seeded stream.
        """
        raw = min(MAX_BACKOFF, self.base_backoff * BACKOFF_MULTIPLIER ** attempt)
        if self.jitter and raw > 0.0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    def schedule(self, rng: random.Random, attempts: int = 0) -> List[float]:
        """The full backoff schedule a session would follow (for tests
        and docs); consumes ``attempts`` draws from ``rng``."""
        n = attempts or self.max_attempts - 1
        return [self.backoff(i, rng) for i in range(n)]

    def out_of_time(self, start: float, now: float) -> bool:
        """True once the per-operation deadline (if any) has passed."""
        return bool(self.deadline) and (now - start) >= self.deadline
