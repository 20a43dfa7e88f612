"""Partial geo-replication benchmark: replication degree A/B.

The same deterministic hot-shard workload runs once per replication
degree over a three-DC topology, and the report A/Bs what partial
replication buys and what it costs:

- **replication traffic** — geo-shipping bytes per key
  (:data:`~repro.metrics.protocol.SHIPPING_MESSAGE_TYPES`); restricting
  ``RemoteUpdate`` fan-out to owner sites must cut this roughly in
  proportion to ``(degree - 1) / (sites - 1)``, plus whatever
  per-destination dependency pruning saves on top;
- **per-DC memory** — the record census of each site (replicas a DC
  holds); non-owners hold nothing, so the per-site census shrinks by
  the fraction of shards the site no longer owns;
- **remote-get latency** — the price: a client whose DC does not own a
  key pays a WAN round-trip to the primary owner's geo-proxy. The p50
  and p99 of those forwarded gets are reported honestly next to the
  local-read latencies, not blended into them.

The workload is hot-shard skewed (:class:`~repro.workload.distributions.
HotShardKeys`) with *placement-matching locality*: each site's clients
concentrate on a few shards whose primary owner is their own DC, and
the uniform 20% tail supplies the cross-shard (and hence remote)
traffic. Primary assignment is degree-independent — ``chain_for``
returns ring prefixes, so the ``r=1`` owner heads every longer owner
list — which keeps the key sequence byte-identical across arms. This
is the regime partial geo-replication targets (placement follows
access locality); a globally shared hot set would instead measure a
deployment whose placement fights its workload, where closed-loop
clients stall on WAN round-trips and every counter just reflects the
collapsed op count. Zipfian popularity would not do either: scrambling
hashes popular keys uniformly over shards, so every DC stays hot.

Virtual behaviour of each arm is seed-deterministic; only wall rates
vary by machine (best-of-``repeats`` filters scheduler noise).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DEGREES",
    "MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2",
    "MIN_CENSUS_REDUCTION_R2",
    "bench_partial_replication",
    "hot_indexes_by_site",
]

#: benchmark arms: label → replication degree (0 = full replication)
DEGREES: Tuple[Tuple[str, int], ...] = (
    ("full", 0),
    ("r=2", 2),
    ("r=1", 1),
)

_SITES = ("dc0", "dc1", "dc2")

#: Acceptance bounds for the ``r=2`` arm against full replication, shared
#: by the smoke gate (``scripts/perf_smoke.py``) and
#: ``benchmarks/bench_pr10_partial.py``. The counters are virtual, so
#: both ratios are machine-independent.
MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2 = 0.70
MIN_CENSUS_REDUCTION_R2 = 0.30


def _percentile(samples: List[float], pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return ordered[idx]


def hot_indexes_by_site(
    record_count: int,
    num_shards: int,
    hot_shards: int,
    key_prefix: str = "user",
) -> Dict[str, Tuple[int, ...]]:
    """Per-site hot sets: for each DC, the key indices of up to
    ``hot_shards`` shards whose *primary* owner is that DC.

    Both maps involved are degree-independent — ``shard_of`` is
    ``hash(key) % num_shards``, and the primary is the first ring site,
    which heads the owner list at every degree — so the same hot sets
    (and hence the same per-driver key sequences) serve every arm, and
    a site's hot shards are locally owned under any ``r >= 1``."""
    from repro.cluster.placement import shard_catalog
    from repro.storage.version import intern_str

    catalog = shard_catalog(_SITES, num_shards=num_shards, replication_degree=1)
    by_shard: Dict[int, List[int]] = {}
    for i in range(record_count):
        key = intern_str(f"{key_prefix}{i:08d}")
        by_shard.setdefault(catalog.shard_of(key), []).append(i)
    out: Dict[str, List[int]] = {site: [] for site in _SITES}
    taken: Dict[str, int] = {site: 0 for site in _SITES}
    for shard in range(num_shards):
        indices = by_shard.get(shard)
        if not indices:
            continue
        primary = catalog.owners[shard][0]
        if taken[primary] < hot_shards:
            out[primary].extend(indices)
            taken[primary] += 1
    return {site: tuple(indices) for site, indices in out.items()}


def _run_arm(
    label: str,
    degree: int,
    ops_per_client: int,
    n_clients: int,
    record_count: int,
    num_shards: int,
    hot_by_site: Dict[str, Tuple[int, ...]],
    seed: int,
) -> Dict[str, Any]:
    from repro.baselines.registry import build_store
    from repro.checker.history import GET
    from repro.errors import ReproError
    from repro.metrics.protocol import SHIPPING_MESSAGE_TYPES
    from repro.workload.driver import SessionDriver, WorkloadRunner
    from repro.workload.ycsb import WorkloadSpec

    class FixedOpsDriver(SessionDriver):
        """Closed-loop driver that stops after ``ops_per_client``
        operations instead of at a virtual deadline.  Remote operations
        are orders of magnitude slower than local ones, so fixed-time
        arms complete wildly different op counts and every per-key
        traffic ratio would mostly measure that collapse; a fixed op
        budget makes each arm execute the byte-identical request
        sequence (per-driver rng streams do not depend on the arm)."""

        def _loop(self, sim):
            budget = ops_per_client
            while budget > 0:
                budget -= 1
                op, key = self._next_request()
                t_invoke = sim.now
                try:
                    if op == GET:
                        outcome = yield self.session.get(key)
                    else:
                        outcome = yield self.session.put(key, self._payload())
                except ReproError as exc:
                    self._op_failed(op, key, exc, measured=True)
                    continue
                self._record(op, key, outcome, t_invoke, sim.now)
            return self._op_seq

    overrides: Dict[str, object] = {"num_shards": num_shards}
    if degree:
        overrides["replication_degree"] = degree
    store = build_store(
        "chainreaction",
        sites=_SITES,
        servers_per_site=3,
        chain_length=3,
        ack_k=2,
        seed=seed,
        overrides=overrides,
    )
    spec = WorkloadSpec(
        "pr10-hot-shard",
        read_proportion=0.5,
        update_proportion=0.5,
        record_count=record_count,
        value_size=64,
    )
    # Each driver skews toward its own site's primary shards; a site
    # with no primary shard that holds keys falls back to uniform.
    site_specs = {
        site: (
            spec.with_updates(
                distribution="hotshard", hot_indexes=hot, hot_fraction=0.8
            )
            if hot
            else spec.with_updates(distribution="uniform")
        )
        for site, hot in hot_by_site.items()
    }

    def localised_driver(session, spec, **kw):
        return FixedOpsDriver(session=session, spec=site_specs[session.site], **kw)

    runner = WorkloadRunner(
        store, spec, n_clients=n_clients, duration=1.0, warmup=0.0,
        record_history=False, driver_factory=localised_driver,
    )
    t0 = time.perf_counter()
    result = runner.setup()
    # Advance until every budgeted driver has finished (periodic
    # protocol processes never drain, so run in bounded windows).
    while any(not d.process.done() for d in runner.drivers):
        store.sim.run(until=store.sim.now + 0.25)
    elapsed = store.sim.now
    wall = time.perf_counter() - t0
    runner.finalize()
    result.throughput = result.ops_completed / elapsed if elapsed else 0.0
    # Quiesce in-flight shipping so traffic and census gauges are final.
    store.run(until=store.sim.now + 0.5)
    net = store.network.stats
    shipping_bytes = net.bytes_of(*SHIPPING_MESSAGE_TYPES)
    stats = store.protocol_stats()
    placement = stats["placement"]
    census = {
        site: sum(len(n.store) for n in store.nodes[site]) for site in store.sites
    }
    forward_lat = [
        s
        for sess in store._sessions
        for s in getattr(sess, "forward_latency_samples", [])
    ]
    meta = stats["metadata"]
    return {
        "arm": label,
        "replication_degree": degree or len(_SITES),
        "wall_seconds": wall,
        "virtual_seconds": elapsed,
        "events_processed": store.sim.events_processed,
        "ops_completed": result.ops_completed,
        "ops_per_wall_sec": result.ops_completed / wall if wall else 0.0,
        "ops_per_virtual_sec": result.throughput,
        "errors": result.errors,
        "messages_sent": net.messages_sent,
        "bytes_sent": net.bytes_sent,
        "cross_site_bytes": net.cross_site_bytes,
        "shipping_bytes": shipping_bytes,
        "shipping_bytes_per_key": shipping_bytes / record_count,
        "updates_shipped": stats.get("updates_shipped", 0),
        "records_per_site": census,
        "records_total": sum(census.values()),
        "forwarded_gets": meta["forwarded_gets"],
        "forwarded_puts": meta["forwarded_puts"],
        "remote_get_samples": len(forward_lat),
        "remote_get_p50_ms": _percentile(forward_lat, 50) * 1000,
        "remote_get_p99_ms": _percentile(forward_lat, 99) * 1000,
        "local_get_p50_ms": result.get_latency.percentile(50) * 1000,
        "local_get_p99_ms": result.get_latency.percentile(99) * 1000,
        "put_p50_ms": result.put_latency.percentile(50) * 1000,
        "placement": placement,
    }


def bench_partial_replication(
    ops_per_client: int = 400,
    n_clients: int = 9,
    record_count: int = 120,
    num_shards: int = 16,
    hot_shards: int = 3,
    seed: int = 1234,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Replication-degree A/B on one hot-shard geo workload.

    Each arm runs ``repeats`` times and the best wall rate is kept; all
    virtual counters are seed-deterministic across repeats. The headline
    ratios pit ``r=2`` (each shard on two of three DCs) against full
    replication: shipping bytes per key must drop, the per-DC record
    census must drop, and the remote-get p50 states the latency price.
    """
    hot_by_site = hot_indexes_by_site(record_count, num_shards, hot_shards)

    def best(label: str, degree: int) -> Dict[str, Any]:
        runs = [
            _run_arm(
                label, degree, ops_per_client, n_clients, record_count,
                num_shards, hot_by_site, seed,
            )
            for _ in range(max(1, repeats))
        ]
        top = max(runs, key=lambda arm: arm["ops_per_wall_sec"])
        top["wall_runs"] = [arm["wall_seconds"] for arm in runs]
        return top

    arms = [best(label, degree) for label, degree in DEGREES]
    by_arm = {arm["arm"]: arm for arm in arms}
    full, r2 = by_arm["full"], by_arm["r=2"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    max_census_full = max(full["records_per_site"].values())
    max_census_r2 = max(r2["records_per_site"].values())
    return {
        "ops_per_client": ops_per_client,
        "n_clients": n_clients,
        "record_count": record_count,
        "num_shards": num_shards,
        "hot_shards": hot_shards,
        "hot_keys_per_site": {
            site: len(hot) for site, hot in hot_by_site.items()
        },
        "seed": seed,
        "sites": list(_SITES),
        "arms": arms,
        # headline: bytes/key at r=2 as a fraction of full replication —
        # gated by MAX_SHIPPING_BYTES_PER_KEY_RATIO_R2
        "shipping_bytes_per_key_ratio_r2": ratio(
            r2["shipping_bytes_per_key"], full["shipping_bytes_per_key"]
        ),
        "shipping_bytes_per_key_ratio_r1": ratio(
            by_arm["r=1"]["shipping_bytes_per_key"],
            full["shipping_bytes_per_key"],
        ),
        "census_reduction_r2": ratio(
            full["records_total"] - r2["records_total"], full["records_total"]
        ),
        "max_site_census_full": max_census_full,
        "max_site_census_r2": max_census_r2,
        "remote_get_p50_ms_r2": r2["remote_get_p50_ms"],
        "remote_get_p99_ms_r2": r2["remote_get_p99_ms"],
        "local_get_p50_ms_full": full["local_get_p50_ms"],
    }
