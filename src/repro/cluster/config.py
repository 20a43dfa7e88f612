"""What every ring deployment is configured by, whatever its protocol.

:class:`DeploymentConfig` carries the knobs a
:class:`~repro.cluster.deployment.RingDeployment` builds from — sites,
ring and chain sizing, link latencies, the failure detector, server
service time, the clients' retry policy and the seed — with validation
at construction. ChainReaction's config and the baselines' extend it
with their protocol's own knobs, so every system in a comparison runs on
identically sized clusters. A leaf module: it imports nothing of the
deployment it configures.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Tuple, TypeVar

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.placement import Catalog

__all__ = ["DeploymentConfig"]

_C = TypeVar("_C", bound="DeploymentConfig")


@dataclasses.dataclass(frozen=True)
class DeploymentConfig:
    """Deployment parameters every protocol shares.

    Attributes:
        sites: datacenter names; one ring of servers per site.
        servers_per_site: storage servers in each DC's ring.
        chain_length: R — replicas per key within a DC.
        op_timeout: client-side per-attempt deadline for get/put. Kept
            well below a second so a crashed server costs a client one
            short stall, not a multi-second blackout (E9).
        client_retry_backoff: base delay between client retries; grows
            by :data:`~repro.core.retry.BACKOFF_MULTIPLIER` per attempt up
            to :data:`~repro.core.retry.MAX_BACKOFF`, with a
            deterministic ``backoff_jitter`` fraction drawn from the
            session's seeded RNG (see repro.core.retry).
        max_retries: client attempts before an operation fails.
        backoff_jitter: symmetric jitter fraction in [0, 1).
        op_deadline: total virtual-time budget for one operation across
            all attempts; 0 disables (the attempt budget still bounds it).
        lan_median / wan_median: link latency medians in seconds.
        failure_timeout: how long a manager waits for a server's
            heartbeat before removing it from the view; must exceed
            :data:`~repro.cluster.membership.HEARTBEAT_INTERVAL`.
        service_time: per-request CPU time a storage server spends on
            client operations and replication; bounds each server's
            capacity at roughly 1/service_time ops/sec.
        virtual_nodes: consistent-hashing virtual nodes per server.
        seed: root seed for every random stream in the deployment.
    """

    sites: Tuple[str, ...] = ("dc0",)
    servers_per_site: int = 6
    chain_length: int = 3
    op_timeout: float = 0.25
    client_retry_backoff: float = 0.02
    max_retries: int = 25
    backoff_jitter: float = 0.1
    op_deadline: float = 0.0
    lan_median: float = 0.0003
    wan_median: float = 0.040
    failure_timeout: float = 0.25
    service_time: float = 0.0001
    virtual_nodes: int = 64
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.sites:
            raise ConfigError("at least one site is required")
        if len(set(self.sites)) != len(self.sites):
            raise ConfigError(f"duplicate site names: {self.sites}")
        if self.servers_per_site < 1:
            raise ConfigError("servers_per_site must be >= 1")
        if self.chain_length < 1:
            raise ConfigError("chain_length must be >= 1")
        if self.chain_length > self.servers_per_site:
            raise ConfigError(
                f"chain_length {self.chain_length} exceeds servers_per_site "
                f"{self.servers_per_site}"
            )
        if self.op_timeout <= 0:
            raise ConfigError("timeouts must be positive")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigError("backoff_jitter must be in [0, 1)")
        if self.op_deadline < 0:
            raise ConfigError("op_deadline must be >= 0 (0 = disabled)")
        # Local import: this is a leaf module nearly everything imports.
        from repro.cluster.membership import HEARTBEAT_INTERVAL

        if self.failure_timeout <= HEARTBEAT_INTERVAL:
            raise ConfigError(
                f"failure_timeout must exceed the heartbeat interval ({HEARTBEAT_INTERVAL} s)"
            )

    @property
    def is_geo(self) -> bool:
        return len(self.sites) > 1

    def server_names(self) -> Tuple[str, ...]:
        """The storage servers' node names, the same in every site."""
        return tuple(f"s{i}" for i in range(self.servers_per_site))

    def placement(self) -> "Catalog":
        """The deployment's catalog (:mod:`repro.cluster.placement`):
        which sites own a key, and what each peer site receives of a
        shipment. Every site owns every key: a
        :class:`~repro.cluster.placement.FullReplication`."""
        # Local import: this is a leaf module nearly everything imports.
        from repro.cluster.placement import FullReplication

        return FullReplication(self.sites)

    def with_updates(self: _C, **changes: object) -> _C:
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]
