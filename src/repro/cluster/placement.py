"""Partial geo-replication: the keyspace-shard catalog.

Full replication keeps every key at every datacenter, so geo write
bandwidth, dependency metadata, and memory all scale with ``sites x
keys``. Partial replication (following Xiang & Vaidya, *Partially
Replicated Causally Consistent Shared Memory*) instead hashes the
keyspace into a fixed number of **shards** and replicates each shard at
only ``r`` *owner* sites.

The catalog is a pure value object, exactly like
:class:`repro.cluster.ring.HashRing` one layer down: owners derive
deterministically from (site list, shard count, replication degree,
virtual-node count) by placing the *sites* on a consistent-hash ring and
walking each shard's successor chain. Every actor that knows the
deployment config computes identical placement with no coordination,
which is also what keeps the sharded simulator's traces byte-identical
across worker counts — routing decisions never depend on runtime state.

``owners_for(key)[0]`` is the key's **primary** owner: clients forward
both gets and puts for non-locally-owned shards there, so all operations
on a shard serialise through one DC's chain (the property the relaxed
dependency checking in the stability planes leans on; see DESIGN
§ placement-and-forwarding).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.ring import HashRing, _hash64
from repro.errors import ClusterError

__all__ = ["ShardCatalog", "shard_catalog"]

#: site-ring virtual nodes: sites are few, so a modest count balances
#: shard ownership without bloating catalog construction.
SITE_VIRTUAL_NODES = 16


class ShardCatalog:  # repro: lint-ok(slots) — a handful per process, cached
    """Immutable shard → owner-sites map for one deployment.

    Picklable by construction args (:meth:`__reduce__`), so it can ride
    inside specs shipped to sharded-simulator worker processes; the
    rebuilt catalog is bit-identical because placement is a pure
    function of the arguments.
    """

    def __init__(
        self,
        sites: Tuple[str, ...],
        num_shards: int,
        replication_degree: int,
        virtual_nodes: int = SITE_VIRTUAL_NODES,
    ):
        if num_shards < 1:
            raise ClusterError(f"num_shards must be >= 1, got {num_shards}")
        if not 1 <= replication_degree <= len(sites):
            raise ClusterError(
                f"replication_degree must be in [1, {len(sites)}]; "
                f"got {replication_degree}"
            )
        self.sites: Tuple[str, ...] = tuple(sites)
        self.num_shards = num_shards
        self.replication_degree = replication_degree
        self.virtual_nodes = virtual_nodes
        ring = HashRing(self.sites, virtual_nodes=virtual_nodes)
        self.owners: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(ring.chain_for(f"shard:{shard:04d}", replication_degree))
            for shard in range(num_shards)
        )
        self._owner_sets: Tuple[frozenset, ...] = tuple(
            frozenset(owners) for owners in self.owners
        )
        # Key lookups are hot (every client op routes through one);
        # keys are interned, so a per-catalog memo pays for itself.
        self._shard_cache: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def shard_of(self, key: str) -> int:
        shard = self._shard_cache.get(key)
        if shard is None:
            shard = _hash64(key) % self.num_shards
            self._shard_cache[key] = shard
        return shard

    def owners_for(self, key: str) -> Tuple[str, ...]:
        """Owner sites of ``key``'s shard; index 0 is the primary."""
        return self.owners[self.shard_of(key)]

    def primary_for(self, key: str) -> str:
        return self.owners[self.shard_of(key)][0]

    def owns(self, site: str, key: str) -> bool:
        return site in self._owner_sets[self.shard_of(key)]

    def owns_unmemoized(self, site: str, key: str) -> bool:
        """:meth:`owns`, read off the memo if the run has asked about
        ``key``, else computed afresh and memoized nowhere: for walks
        over many keys (the preload holding rule, the census), which
        would otherwise fill the memo with every one."""
        shard = self._shard_cache.get(key)
        if shard is None:
            shard = _hash64(key) % self.num_shards
        return site in self._owner_sets[shard]

    def owns_shard(self, site: str, shard: int) -> bool:
        return site in self._owner_sets[shard]

    def owned_shards(self, site: str) -> Tuple[int, ...]:
        return tuple(
            shard
            for shard in range(self.num_shards)
            if site in self._owner_sets[shard]
        )

    @property
    def is_full(self) -> bool:
        return self.replication_degree == len(self.sites)

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardCatalog):
            return NotImplemented
        return (
            self.sites == other.sites
            and self.num_shards == other.num_shards
            and self.replication_degree == other.replication_degree
            and self.virtual_nodes == other.virtual_nodes
        )

    def __hash__(self) -> int:
        return hash(
            (self.sites, self.num_shards, self.replication_degree, self.virtual_nodes)
        )

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[str, ...], int, int, int]]:
        return (
            ShardCatalog,
            (self.sites, self.num_shards, self.replication_degree, self.virtual_nodes),
        )

    def __repr__(self) -> str:
        return (
            f"ShardCatalog(sites={self.sites!r}, num_shards={self.num_shards}, "
            f"replication_degree={self.replication_degree})"
        )

    def describe(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """(shard, owners) rows — diagnostics and doc tables."""
        return list(enumerate(self.owners))


#: Catalogs are pure values; share one instance per deployment shape
#: (same memo pattern as membership's ring cache).
_CATALOG_CACHE: Dict[Tuple[Tuple[str, ...], int, int, int], ShardCatalog] = {}  # repro: lint-ok(module-mutable-state) — per-process memo of pure values, rebuilt identically


def shard_catalog(
    sites: Tuple[str, ...],
    num_shards: int,
    replication_degree: int,
    virtual_nodes: int = SITE_VIRTUAL_NODES,
) -> ShardCatalog:
    """The (cached) catalog for a deployment shape."""
    cache_key = (tuple(sites), num_shards, replication_degree, virtual_nodes)
    catalog = _CATALOG_CACHE.get(cache_key)
    if catalog is None:
        catalog = ShardCatalog(*cache_key)
        _CATALOG_CACHE[cache_key] = catalog
    return catalog
