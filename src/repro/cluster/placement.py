"""Geo-replication placement: which sites own a key, and what each peer
site receives of a shipment (``prune``, the one per-peer rule every
stabilization plane ships by). Every deployment has one catalog,
``ChainReactionConfig.placement()``, and this module alone knows its
two kinds:

- :class:`FullReplication` — every site owns every key (the paper's
  deployment). It hashes and memoizes nothing.
- :class:`ShardCatalog` — partial replication (following Xiang &
  Vaidya, *Partially Replicated Causally Consistent Shared Memory*):
  the keyspace hashes into a fixed number of **shards**, each
  replicated at only ``r`` *owner* sites, so geo write bandwidth,
  dependency metadata and memory stop scaling with ``sites x keys``.

The shard catalog is a pure value object, exactly like
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

import dataclasses
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.cluster.ring import HashRing, _hash64
from repro.errors import ClusterError
from repro.net.network import Address

__all__ = ["Catalog", "FullReplication", "ShardCatalog", "shard_catalog"]

#: ``(peer, what it receives)`` for each peer that receives anything
Shares = List[Tuple[Address, Tuple[Any, ...]]]


class FullReplication:
    """Every site owns every key, and every peer receives every update
    whole; a walk over many keys needs no per-key test (:meth:`owns_all`)."""

    __slots__ = ("sites",)

    def __init__(self, sites: Sequence[str]) -> None:
        self.sites: Tuple[str, ...] = tuple(sites)

    def owns(self, site: str, key: str) -> bool:
        return True

    owns_unmemoized = owns

    def owns_all(self, site: str) -> bool:
        return True

    def owners_for(self, key: str) -> Tuple[str, ...]:
        return self.sites

    def primary_for(self, key: str) -> str:
        return self.sites[0]

    def owner_peers(self, peers: List[Address], key: str) -> List[Address]:
        return peers

    def prune(self, peers: List[Address], updates: Tuple[Any, ...]) -> Shares:
        return [(peer, updates) for peer in peers]


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

    def owned_shards(self, site: str) -> Tuple[int, ...]:
        return tuple(shard for shard, owners in enumerate(self._owner_sets) if site in owners)

    def owns_all(self, site: str) -> bool:
        """True when ``site`` owns every shard: a walk over many keys
        then needs no per-key :meth:`owns_unmemoized`."""
        return len(self.owned_shards(site)) == self.num_shards

    def owner_peers(self, peers: List[Address], key: str) -> List[Address]:
        return [peer for peer in peers if self.owns(peer.site, key)]

    def prune(self, peers: List[Address], updates: Tuple[Any, ...]) -> Shares:
        """What each peer receives of ``updates`` (each with a ``key`` and
        a ``deps`` map): the updates of keys its site owns, each keeping
        only the dependency entries on shards the site owns — the
        entries its causal-delivery gate can check; reads of any other
        key forward to the key's primary owner, whose chain is never
        behind (share-bounded tracking). A peer from which nothing was
        dropped receives ``updates`` itself, so those peers can share
        one frozen message, sized once.
        """
        shares: Shares = []
        for peer in peers:
            site = peer.site
            share = tuple(
                self._pruned(site, update) for update in updates if self.owns(site, update.key)
            )
            if share:
                shares.append((peer, updates if share == updates else share))
        return shares

    def _pruned(self, site: str, update: Any) -> Any:
        kept = {key: entry for key, entry in update.deps.items() if self.owns(site, key)}
        return update if len(kept) == len(update.deps) else dataclasses.replace(update, deps=kept)

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


#: Catalogs are pure values; share one instance per deployment shape
#: (same memo pattern as membership's ring cache).
_CATALOG_CACHE: Dict[Tuple[Tuple[str, ...], int, int, int], ShardCatalog] = {}  # repro: lint-ok(module-mutable-state) — per-process memo of pure values, rebuilt identically


def shard_catalog(
    sites: Tuple[str, ...],
    num_shards: int,
    replication_degree: int,
    virtual_nodes: int = SITE_VIRTUAL_NODES,
) -> ShardCatalog:
    """The (cached) shard catalog for a deployment shape."""
    cache_key = (tuple(sites), num_shards, replication_degree, virtual_nodes)
    catalog = _CATALOG_CACHE.get(cache_key)
    if catalog is None:
        catalog = ShardCatalog(*cache_key)
        _CATALOG_CACHE[cache_key] = catalog
    return catalog


#: a deployment's placement: what ``ChainReactionConfig.placement()`` returns
Catalog = Union[FullReplication, ShardCatalog]
