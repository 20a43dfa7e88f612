"""Consistent hashing and chain placement.

ChainReaction inherits FAWN-KV's data placement: servers sit on a
consistent-hash ring (with virtual nodes for balance), and the replica
*chain* for a key is the key's successor on the ring followed by the
next ``R - 1`` distinct physical servers. Chain order is what gives the
protocol its write serialisation — position 0 is the head, position
``R - 1`` the tail.

The ring is a pure value object: membership changes produce placements
deterministically from (server set, virtual-node count), so every actor
that knows the member list computes identical chains with no extra
coordination.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ClusterError

__all__ = ["HashRing", "chain_positions"]

_HASH_SPACE = 2**64


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over a set of server names."""

    def __init__(self, servers: Sequence[str], virtual_nodes: int = 64):
        if virtual_nodes < 1:
            raise ClusterError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        unique = list(dict.fromkeys(servers))
        if len(unique) != len(servers):
            raise ClusterError("duplicate server names in ring")
        self._servers: Tuple[str, ...] = tuple(unique)
        self._virtual_nodes = virtual_nodes
        points: List[Tuple[int, str]] = []
        for server in unique:
            for v in range(virtual_nodes):
                points.append((_hash64(f"{server}#{v}"), server))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]
        # A key's chain depends only on the ring point its hash lands
        # on, so each chain length has at most ``len(points)`` distinct
        # chains: ``_point_chains[length][i]`` is the successor walk from
        # point ``i``, equal walks sharing one list. Rings are immutable
        # and workloads ask for the same keys' chains millions of times,
        # so ``_chain_cache[length]`` maps key → that shared list.
        self._point_chains: Dict[int, List[List[str]]] = {}
        self._chain_cache: Dict[int, Dict[str, List[str]]] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def servers(self) -> Tuple[str, ...]:
        return self._servers

    @property
    def virtual_nodes(self) -> int:
        return self._virtual_nodes

    def __len__(self) -> int:
        return len(self._servers)

    def without(self, server: str) -> "HashRing":
        """A new ring with ``server`` removed."""
        if server not in self._servers:
            raise ClusterError(f"server {server!r} not in ring")
        return HashRing(
            [s for s in self._servers if s != server], self._virtual_nodes
        )

    def with_server(self, server: str) -> "HashRing":
        """A new ring with ``server`` added."""
        if server in self._servers:
            raise ClusterError(f"server {server!r} already in ring")
        return HashRing(list(self._servers) + [server], self._virtual_nodes)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def chain_for(self, key: str, length: int) -> List[str]:
        """The replica chain for ``key``: ``length`` distinct servers in
        ring-successor order. Head first, tail last."""
        if not self._servers:
            raise ClusterError("ring is empty")
        if length < 1:
            raise ClusterError(f"chain length must be >= 1, got {length}")
        cache = self._chain_cache.get(length)
        if cache is None:
            cache = self._chain_cache[length] = {}
        chain = cache.get(key)
        if chain is None:
            clamped = min(length, len(self._servers))
            chains = self._point_chains.get(clamped)
            if chains is None:
                chains = self._point_chains[clamped] = self._walk_all_points(clamped)
            start = bisect.bisect_right(self._hashes, _hash64(key)) % len(chains)
            # Callers treat chains as read-only: the same list instance
            # serves every key that lands on the same ring point.
            chain = cache[key] = chains[start]
        return chain

    def chains(self, keys: Iterable[str], length: int) -> Mapping[str, List[str]]:
        """``key → chain_for(key, length)`` for every key of ``keys`` (and
        any placed before): the ring's own memo, so read-only for callers
        and free to keep — the ring and its chains never change."""
        chain_for = self.chain_for
        for key in keys:
            chain_for(key, length)
        return self._chain_cache.setdefault(length, {})

    def _walk_all_points(self, length: int) -> List[List[str]]:
        """The ``length``-server successor walk from every ring point."""
        points = self._points
        shared: Dict[Tuple[str, ...], List[str]] = {}
        chains: List[List[str]] = []
        for start in range(len(points)):
            chain: List[str] = []
            idx = start
            while len(chain) < length:
                server = points[idx][1]
                if server not in chain:
                    chain.append(server)
                idx = (idx + 1) % len(points)
            chains.append(shared.setdefault(tuple(chain), chain))
        return chains

    def head_for(self, key: str) -> str:
        return self.chain_for(key, 1)[0]

    def load_map(self, keys: Sequence[str], length: int) -> Dict[str, int]:
        """How many of ``keys`` each server replicates — balance diagnostics."""
        counts: Dict[str, int] = {s: 0 for s in self._servers}
        for key in keys:
            for server in self.chain_for(key, length):
                counts[server] += 1
        return counts


def chain_positions(chain: Sequence[str], server: str) -> Optional[int]:
    """Index of ``server`` in ``chain`` (0 = head), or None if absent."""
    try:
        return chain.index(server)  # type: ignore[arg-type]
    except ValueError:
        return None
