"""Key-popularity distributions (YCSB-compatible).

The paper drives its evaluation with YCSB workloads, whose request
distributions are reproduced here:

- :class:`UniformKeys` — uniform over the keyspace,
- :class:`ZipfianKeys` — Gray's rejection-free zipfian generator (the
  YCSB algorithm), giving the skewed popularity that creates hot chains,
- :class:`ScrambledZipfianKeys` — zipfian ranks hashed over the
  keyspace, so the hot keys are not clustered on one ring segment,
- :class:`LatestKeys` — zipfian over recency, for YCSB workload D,
- :class:`HotShardKeys` — an explicit hot set absorbs a fixed fraction
  of the traffic, the rest uniform; the partial-replication experiment
  uses it to concentrate load on chosen keyspace *shards* (zipfian
  popularity hashes keys uniformly over shards, so shard-level skew
  needs shard-aware hot sets).
"""

from __future__ import annotations

import functools
import math
import random
from typing import Sequence

__all__ = [
    "KeyChooser",
    "UniformKeys",
    "ZipfianKeys",
    "ScrambledZipfianKeys",
    "LatestKeys",
    "HotShardKeys",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv64(value: int) -> int:
    """FNV-1a over the 8 bytes of ``value`` — YCSB's scrambling hash."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


@functools.lru_cache(maxsize=32)
def _zeta(n: int, theta: float) -> float:
    """``sum(1 / i**theta for i in 1..n)`` — the O(n) part of a zipfian
    chooser. Every client of a run asks for the same ``(n, theta)``."""
    return sum(1.0 / (i**theta) for i in range(1, n + 1))


class KeyChooser:
    """Chooses key indices in ``[0, n)``."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"keyspace must have >= 1 key, got {n}")
        self.n = n

    def choose(self, rng: random.Random) -> int:
        raise NotImplementedError


class UniformKeys(KeyChooser):
    def choose(self, rng: random.Random) -> int:
        return rng.randrange(self.n)


class ZipfianKeys(KeyChooser):
    """Zipfian over ``[0, n)`` with parameter ``theta`` (default 0.99).

    Implements the Gray et al. "Quickly generating billion-record
    synthetic databases" algorithm used verbatim by YCSB: constant-time
    sampling after an O(n) zeta precomputation (done once per
    ``(n, theta)``, see :func:`_zeta`).
    """

    def __init__(self, n: int, theta: float = 0.99):
        super().__init__(n)
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.theta = theta
        self._zeta_n = _zeta(n, theta)
        self._zeta_2 = 1.0 + 0.5**theta
        self._alpha = 1.0 / (1.0 - theta)
        if n > 2:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                1.0 - self._zeta_2 / self._zeta_n
            )
        else:
            # For n <= 2 every draw is resolved by the first two branches
            # of choose(); eta is never consulted.
            self._eta = 0.0

    def choose(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < self._zeta_2:
            return 1
        return int(self.n * math.pow(self._eta * u - self._eta + 1.0, self._alpha))


class ScrambledZipfianKeys(ZipfianKeys):
    """Zipfian ranks spread over the keyspace by hashing (YCSB default).

    Without scrambling the most popular keys are consecutive indices,
    which consistent hashing would happen to co-locate or not in an
    arbitrary way; hashing makes popularity independent of placement.
    """

    def choose(self, rng: random.Random) -> int:
        rank = super().choose(rng)
        return _fnv64(rank) % self.n


class LatestKeys(KeyChooser):
    """Zipfian over recency: index ``n-1`` is the most popular (YCSB D)."""

    def __init__(self, n: int, theta: float = 0.99):
        super().__init__(n)
        self._zipf = ZipfianKeys(n, theta)

    def choose(self, rng: random.Random) -> int:
        return self.n - 1 - self._zipf.choose(rng)


class HotShardKeys(KeyChooser):
    """A fixed hot set takes ``hot_fraction`` of the draws, uniformly;
    the remainder is uniform over the whole keyspace.

    The hot set is an explicit index tuple so a caller can align it
    with any partitioning — e.g. every key of a handful of placement
    shards — rather than relying on rank popularity, which scrambling
    (and shard hashing) spreads uniformly across partitions.
    """

    def __init__(self, n: int, hot_indexes: Sequence[int], hot_fraction: float = 0.8):
        super().__init__(n)
        if not hot_indexes:
            raise ValueError("hot_indexes must be non-empty")
        bad = [i for i in hot_indexes if not 0 <= i < n]
        if bad:
            raise ValueError(f"hot indexes {bad[:3]} outside keyspace [0, {n})")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
        self.hot_indexes = tuple(hot_indexes)
        self.hot_fraction = hot_fraction

    def choose(self, rng: random.Random) -> int:
        if rng.random() < self.hot_fraction:
            return self.hot_indexes[rng.randrange(len(self.hot_indexes))]
        return rng.randrange(self.n)
