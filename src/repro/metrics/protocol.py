"""Protocol-plane counters: batching effectiveness and metadata footprint.

These helpers aggregate the coalescer counters (``repro.core.batching``)
and the metadata-GC gauges that PR 4 added across a deployment's servers,
proxies, and client sessions. They are duck-typed (``Any``) rather than
importing the core classes, so the metrics package stays a leaf.

Two views matter for the perf report:

- **flow** — how many individual notifications the protocol *would*
  have sent versus how many batch messages actually hit the wire
  (``entries_enqueued`` / ``batches_flushed`` / ``messages_saved``);
- **footprint** — how much stability/dependency metadata is live right
  now (stable-map entries, sealed keys, client dep-table entries and
  bytes). A key installed converged (preload) has no stable-map entry
  until its first overwrite, so the footprint grows with the keys
  *written*, never with the keyspace; on the ``notices+batch`` plane,
  which seals, it plateaus as the run grows.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

__all__ = [
    "STABILITY_MESSAGE_TYPES",
    "GLOBAL_STABILITY_MESSAGE_TYPES",
    "SHIPPING_MESSAGE_TYPES",
    "CLOCK_STABILITY_MESSAGE_TYPES",
    "coalescer_stats",
    "batching_stats",
    "link_floor_profile",
    "metadata_footprint",
    "placement_stats",
    "stability_plane_stats",
]

#: wire types carrying intra-DC stability notifications (notices plane)
STABILITY_MESSAGE_TYPES = ("chain-stable", "bulk-stable")
#: wire types carrying global-stability announcements (notices plane)
GLOBAL_STABILITY_MESSAGE_TYPES = ("global-stable-notice", "global-stable-batch")
#: wire types carrying geo-replicated update payloads ("clock-ship" is
#: the clock plane's batched carrier of the same RemoteUpdate payloads)
SHIPPING_MESSAGE_TYPES = ("remote-update", "remote-update-batch", "clock-ship")
#: wire types carrying the clock plane's stabilization control traffic;
#: the A/B comparison pits STABILITY + GLOBAL_STABILITY + global-ack
#: (the notices plane's per-write streams) against these periodic ones.
#: TailStable and the payload-shipping types are excluded from both
#: sides: they carry data, not stability metadata, and exist on both
#: planes.
CLOCK_STABILITY_MESSAGE_TYPES = (
    "tail-applied",
    "clock-report",
    "clock-tick",
    "stability-vector",
)


def coalescer_stats(coalescers: Iterable[Any]) -> Dict[str, int]:
    """Sum the counters of a set of coalescers."""
    out = {
        "entries_enqueued": 0,
        "batches_flushed": 0,
        "eager_flushes": 0,
        "messages_saved": 0,
        "pending_entries": 0,
    }
    for c in coalescers:
        out["entries_enqueued"] += c.entries_enqueued
        out["batches_flushed"] += c.batches_flushed
        out["eager_flushes"] += c.eager_flushes
        out["messages_saved"] += c.messages_saved()
        out["pending_entries"] += c.pending_entries()
    return out


def batching_stats(hosts: Iterable[Any]) -> Dict[str, Any]:
    """Batching counters split by stream (chain stability, geo shipping,
    global fan-out) over the servers and proxies hosting a plane; empty
    when the plane coalesces nothing."""
    streams: Dict[str, List[Any]] = {}
    for host in hosts:
        for stream, coalescer in host.plane.coalescers().items():
            streams.setdefault(stream, []).append(coalescer)
    return {stream: coalescer_stats(found) for stream, found in streams.items()}


def link_floor_profile(network: Any) -> Dict[str, float]:
    """Latency floors of a deployment's links, in seconds.

    ``LatencyModel.min_latency()`` bounds every future sample of a model
    from below; the smallest *cross-site* floor is exactly the
    conservative lookahead the sharded engine (:mod:`repro.sim.shard`)
    runs under, so a report carrying protocol counters can also record
    the horizon those numbers were obtained with. Link overrides
    (``Network.set_link``) participate: an experiment that tightens one
    WAN link tightens the reported lookahead too.
    """
    lan_floor = network._lan.min_latency()
    wan_floor = network._wan.min_latency()
    cross_floors = [wan_floor]
    for sites, model in network._site_links.items():
        if len(sites) == 2:
            cross_floors.append(model.min_latency())
    return {
        "lan_floor_s": lan_floor,
        "wan_floor_s": wan_floor,
        "cross_site_lookahead_s": min(cross_floors),
    }


def metadata_footprint(nodes: Iterable[Any], sessions: Iterable[Any]) -> Dict[str, int]:
    """Live metadata gauges: server stability maps and client dep tables.

    Since the PR 5 memory work the report also covers the pooled and
    interned structures backing that metadata — the version-vector
    intern pool and the allocated dependency-table column cells — so
    PR 4's plateau numbers stay comparable against the new layout
    (``dep_table_slots`` ≥ ``dep_table_entries``; the difference is
    unreclaimed holes awaiting compaction).
    """
    from repro.storage.version import intern_stats

    node_list = list(nodes)
    session_list = list(sessions)
    pool = intern_stats()
    server = dict.fromkeys(
        ("stable_map_entries", "global_floor_entries", "keys_sealed", "entries_sealed", "hlc_entries"), 0
    )
    for n in node_list:
        for name, value in n.plane.metadata().items():
            server[name] += value
    hlc_entries = server.pop("hlc_entries")
    hlc_skew_max = max((n.plane.max_skew() for n in node_list), default=0)
    return {
        **server,
        "dep_table_entries": sum(s.metadata_entries() for s in session_list),
        "dep_table_bytes": sum(s.metadata_bytes() for s in session_list),
        "dep_table_slots": sum(s._deps.column_slots() for s in session_list),
        "vv_intern_entries": pool["entries"],
        "vv_intern_capacity": pool["capacity"],
        "vv_intern_hits": pool["hits"],
        # clock-plane gauges (0 on the notices plane): per-key stamp map
        # size and the worst clock-vs-simulated-time skew seen, in µs
        "hlc_entries": hlc_entries,
        "hlc_skew_max_us": hlc_skew_max,
        # partial-replication client gauges (0 under full replication):
        # operations routed to a remote owner DC instead of served here
        "forwarded_gets": sum(s.forwarded_gets for s in session_list),
        "forwarded_puts": sum(s.forwarded_puts for s in session_list),
    }


def placement_stats(store: Any) -> Dict[str, Any]:
    """Partial-replication gauges for one deployment (per local site).

    ``owned_shards`` and ``records_held`` expose the per-DC memory
    census the replication-degree A/B compares; the forwarded-operation
    counters and ``dep_table_slots`` bound the extra metadata partial
    replication introduces (remote routing plus ``fwd_deps`` merges).
    Under full replication the dict collapses to the degenerate summary.
    """
    config = store.config
    if not config.is_partial:
        return {
            "partial": False,
            "replication_degree": len(config.sites),
            "num_shards": config.num_shards,
        }
    catalog = config.placement()
    per_site: Dict[str, Dict[str, int]] = {}
    for site in store.local_sites:
        proxy = store.proxies[site]
        per_site[site] = {
            "owned_shards": len(catalog.owned_shards(site)),
            "records_held": sum(len(n.store) for n in store.nodes[site]),
            "forwarded_gets_served": proxy.forwarded_gets_served,
            "forwarded_get_bytes": proxy.forwarded_get_bytes,
            "forwarded_puts_served": proxy.forwarded_puts_served,
            "dep_table_slots": sum(
                s._deps.column_slots() for s in store._sessions if s.site == site
            ),
        }
    return {
        "partial": True,
        "replication_degree": catalog.replication_degree,
        "num_shards": catalog.num_shards,
        "sites": per_site,
    }


def stability_plane_stats(store: Any) -> Dict[str, Any]:
    """Plane-aware stabilization-traffic gauges for one deployment.

    ``stability_messages`` / ``stability_bytes`` count the plane's
    control traffic under one definition on both planes — everything
    sent *only* to establish stability (per-write notices and acks on
    the notices plane; floor reports, ticks and vectors on the clock
    plane). Data-bearing messages (TailStable, remote-update shipping)
    are excluded on both sides so the A/B isolates the metadata plane.
    """
    net = store.network.stats
    config = store.config
    types = store.plane.control_types
    out: Dict[str, Any] = {
        "plane": config.stability,
        "stability_messages": net.count_of(*types),
        "stability_bytes": net.bytes_of(*types),
        "vector_bytes": net.bytes_of("stability-vector"),
        "tick_bytes": net.bytes_of("clock-tick"),
        "report_bytes": net.bytes_of("clock-report"),
    }
    elapsed = store.sim.now
    intervals = elapsed / config.stability_interval if elapsed > 0 else 0.0
    out["vector_bytes_per_interval"] = (
        out["vector_bytes"] / intervals if intervals else 0.0
    )
    cut_lags = [proxy.plane.cut_lag() for proxy in store.proxies.values()]
    out["cut_lag_max_s"] = max(cut_lags) if cut_lags else 0.0
    return out
