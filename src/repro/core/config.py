"""Configuration for a ChainReaction deployment.

One dataclass carries every knob the paper discusses plus the ablation
switches called out in DESIGN.md §6 — on top of the deployment knobs
every protocol shares (:class:`~repro.cluster.config.DeploymentConfig`)
— with validation at construction so misconfigured experiments fail
loudly before any virtual time elapses.
The schedule explorer's seeded protocol bugs are not options here: they
are class patches in :mod:`repro.analysis.mutations`. Nor is anything a
stabilization plane decides: ``stability`` is a name, and what a plane
does — down to whether a session prunes globally stable dependencies —
is asked of the classes :data:`repro.core.stability_plane.PLANES` builds.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Tuple

from repro.cluster.config import DeploymentConfig
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.placement import Catalog

__all__ = ["STABILITY_PLANES", "ChainReactionConfig"]

#: The stabilization planes by name: what ``ChainReactionConfig.stability``
#: and every ``--stability`` flag choose from. What builds each one is
#: :data:`repro.core.stability_plane.PLANES`, and nothing else asks which.
STABILITY_PLANES: Tuple[str, ...] = ("notices", "notices+batch", "clock")


@dataclasses.dataclass(frozen=True)
class ChainReactionConfig(DeploymentConfig):
    """Deployment and protocol parameters: the shared deployment knobs of
    :class:`~repro.cluster.config.DeploymentConfig` (each site also runs
    one geo-proxy), plus:

    Attributes:
        ack_k: k — chain positions that must apply a put before the
            client is acknowledged (the paper's latency/durability knob).
        allow_prefix_reads: ChainReaction's read distribution. False
            degenerates reads to the tail, i.e. classic chain
            replication read behaviour (ablation, DESIGN.md §6.3).
        collapse_deps_on_put: reset the client's dependency metadata to
            the new write after each put (ablation §6.2 when False).
        geo_causal_delivery: apply remote updates only after their
            dependencies are DC-stable locally (ablation §6.4).
        dep_wait_timeout: how long a head waits for a dependency to
            stabilise before proceeding anyway (counts as a
            ``dep_wait_timeouts`` event; only reachable after data loss).
        degraded_reads: when the chain prefix holding a session's
            observed version stays unreachable, serve a possibly-stale
            version from any replica flagged ``GetResult.degraded``
            instead of raising (the degraded-mode read path, E9), after
            :data:`~repro.core.client.DEGRADED_READ_AFTER` failed attempts.
        durable_storage: back each server's store with a FAWN-KV-style
            append-only log; a crash loses memory but not the log, and
            recovery replays it before chain repair fills the rest;
            every :data:`~repro.core.node.COMPACTION_INTERVAL` a server
            compacts a log that has outgrown its live set.
        replication_degree: r — how many sites replicate each keyspace
            shard. 0 (default) means full replication: every site owns
            every key, and the catalog is a
            :class:`~repro.cluster.placement.FullReplication`. Any value
            in [1, len(sites)) enables *partial* geo-replication: keys
            hash into ``num_shards`` shards, each owned by ``r`` sites
            chosen on a consistent-hash ring over the site names
            (:mod:`repro.cluster.placement`), remote updates ship only
            to owner sites, and clients forward operations on non-owned
            shards to the shard's primary owner. ``r = len(sites)``
            is accepted and equivalent to full replication.
        num_shards: keyspace shards the partial-replication catalog
            divides the key hash space into. Irrelevant (but validated)
            when ``replication_degree`` is 0.
        batch_flush_interval: virtual-time window over which the
            ``notices+batch`` plane coalesces stability / geo metadata
            before flushing (seconds). The knob trades metadata-plane
            message count against stability latency; keep it well under
            ``wan_median`` so batching never dominates the
            geo-visibility path.
        stability: which stabilization plane drives causal visibility,
            one of :data:`STABILITY_PLANES`. ``"notices"`` (default) is
            the paper's explicit plane: per-write ChainStable cascades,
            RemoteUpdate fan-out and GlobalStableNotice streams.
            ``"notices+batch"`` is the same plane with the three streams
            coalesced per destination (``BulkStable`` /
            ``RemoteUpdateBatch`` / ``GlobalStableBatch``, flushed every
            ``batch_flush_interval`` or at
            :data:`~repro.core.batching.BATCH_MAX_ENTRIES`) and
            fully-stable keys sealed — tracker entries and retained
            dependency lists dropped, the stored version itself the
            per-key floor — at the stability event that completes them.
            ``"clock"`` replaces all of that with hybrid-logical-clock
            stamps on writes plus one small stability vector per DC per
            ``stability_interval`` — remote updates become visible when
            the periodic cut passes their stamp (Okapi-style deferred
            stabilization).
        stability_interval: period of the clock plane's control loop —
            server floor reports, site vector broadcast, ship flushes
            and visibility ticks all run on this cadence. Trades
            control-message rate against visibility latency (adds up to
            ~2 intervals on top of the WAN hop).
    """

    ack_k: int = 2
    allow_prefix_reads: bool = True
    collapse_deps_on_put: bool = True
    geo_causal_delivery: bool = True
    dep_wait_timeout: float = 1.0
    degraded_reads: bool = True
    durable_storage: bool = False
    replication_degree: int = 0
    num_shards: int = 16
    batch_flush_interval: float = 0.025
    stability: str = "notices"
    stability_interval: float = 0.005

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.ack_k <= self.chain_length:
            raise ConfigError(
                f"ack_k must be in [1, chain_length]; got k={self.ack_k}, "
                f"R={self.chain_length}"
            )
        if self.dep_wait_timeout <= 0:
            raise ConfigError("timeouts must be positive")
        if not 0 <= self.replication_degree <= len(self.sites):
            raise ConfigError(
                f"replication_degree must be in [0, len(sites)={len(self.sites)}]; "
                f"got {self.replication_degree} (0 = full replication)"
            )
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if self.batch_flush_interval <= 0:
            raise ConfigError("batch_flush_interval must be positive")
        if self.stability not in STABILITY_PLANES:
            raise ConfigError(
                f"stability must be one of {STABILITY_PLANES}; got "
                f"{self.stability!r}"
            )
        if self.stability_interval <= 0:
            raise ConfigError("stability_interval must be positive")

    @property
    def is_partial(self) -> bool:
        """True when some site does NOT replicate some shard."""
        return 0 < self.replication_degree < len(self.sites)

    def placement(self) -> "Catalog":
        """The deployment's catalog (:mod:`repro.cluster.placement`):
        a :class:`~repro.cluster.placement.FullReplication` for
        ``replication_degree`` 0 or ``len(sites)``, else the cached
        :class:`~repro.cluster.placement.ShardCatalog`.

        Callers ask it, never which kind it is: which keys a site owns,
        and what each peer site receives of a shipment. Callers on hot
        paths cache the result.
        """
        # Local import: config is a leaf module nearly everything imports.
        from repro.cluster.placement import shard_catalog

        if not self.is_partial:
            return super().placement()
        return shard_catalog(self.sites, self.num_shards, self.replication_degree)
