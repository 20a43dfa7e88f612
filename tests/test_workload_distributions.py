"""Unit and property tests for key-popularity distributions."""

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.workload import LatestKeys, ScrambledZipfianKeys, UniformKeys, ZipfianKeys


@pytest.fixture
def rng():
    return random.Random(99)


def sample(chooser, rng, n=5000):
    return Counter(chooser.choose(rng) for _ in range(n))


class TestUniform:
    def test_within_bounds(self, rng):
        chooser = UniformKeys(10)
        counts = sample(chooser, rng)
        assert set(counts) <= set(range(10))

    def test_roughly_even(self, rng):
        counts = sample(UniformKeys(10), rng, n=20000)
        for key in range(10):
            assert 1500 < counts[key] < 2500, counts


class TestZipfian:
    def test_within_bounds(self, rng):
        counts = sample(ZipfianKeys(100), rng)
        assert min(counts) >= 0 and max(counts) < 100

    def test_rank_zero_most_popular(self, rng):
        counts = sample(ZipfianKeys(100), rng, n=20000)
        assert counts.most_common(1)[0][0] == 0

    def test_skew_matches_theory_roughly(self, rng):
        # With theta=0.99 and n=100, rank 0 draws about 19% of requests.
        counts = sample(ZipfianKeys(100, theta=0.99), rng, n=40000)
        share = counts[0] / 40000
        assert 0.14 < share < 0.25, share

    def test_popularity_decreasing_over_head_ranks(self, rng):
        counts = sample(ZipfianKeys(100), rng, n=40000)
        assert counts[0] > counts[1] > counts[3]

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            ZipfianKeys(10, theta=1.0)

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError):
            ZipfianKeys(0)


class TestScrambledZipfian:
    def test_same_skew_different_hot_key(self, rng):
        counts = sample(ScrambledZipfianKeys(100), rng, n=40000)
        hot_key, hot_count = counts.most_common(1)[0]
        assert hot_count / 40000 > 0.14
        # the point of scrambling: the hot key is no longer rank 0
        assert hot_key != 0

    def test_deterministic_mapping(self):
        a, b = random.Random(1), random.Random(1)
        c1 = ScrambledZipfianKeys(50)
        c2 = ScrambledZipfianKeys(50)
        assert [c1.choose(a) for _ in range(100)] == [c2.choose(b) for _ in range(100)]


class TestLatest:
    def test_most_recent_most_popular(self, rng):
        counts = sample(LatestKeys(100), rng, n=40000)
        assert counts.most_common(1)[0][0] == 99

    def test_within_bounds(self, rng):
        counts = sample(LatestKeys(10), rng)
        assert set(counts) <= set(range(10))


class TestProperties:
    @given(st.integers(min_value=1, max_value=500), st.integers())
    def test_all_choosers_stay_in_range(self, n, seed):
        rng = random.Random(seed)
        for chooser in (UniformKeys(n), ZipfianKeys(n), ScrambledZipfianKeys(n), LatestKeys(n)):
            for _ in range(20):
                assert 0 <= chooser.choose(rng) < n


def gray_zipfian_draws(n, theta, rng, count):
    """Reference: Gray's generator with its O(n) zeta sum computed on the
    spot, exactly as every chooser did before the sum was memoised."""
    zeta_n = sum(1.0 / (i**theta) for i in range(1, n + 1))
    zeta_2 = 1.0 + 0.5**theta
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta_2 / zeta_n)
    draws = []
    for _ in range(count):
        u = rng.random()
        uz = u * zeta_n
        if uz < 1.0:
            draws.append(0)
        elif uz < zeta_2:
            draws.append(1)
        else:
            draws.append(int(n * math.pow(eta * u - eta + 1.0, alpha)))
    return draws


class TestMemoisedZetaKeepsDraws:
    """The zeta constants are computed once per (n, theta); the draw
    sequences must stay bit-identical (digests pinned at the commit
    before the memo)."""

    PINNED = {
        (ZipfianKeys, 1000, 0.99): "cd704d20836f81f1",
        (ZipfianKeys, 50_000, 0.7): "1baf7be643e155ad",
        (ScrambledZipfianKeys, 1000, 0.99): "a8fb5d7f3a45bc9a",
        (ScrambledZipfianKeys, 50_000, 0.7): "a2a59e55e5f8b254",
        (LatestKeys, 1000, 0.99): "f9e5f905f3324993",
        (LatestKeys, 50_000, 0.7): "ed60a61ecb153f58",
    }

    @pytest.mark.parametrize("cls,n,theta", sorted(PINNED, key=str))
    def test_first_10k_draws_unchanged(self, cls, n, theta):
        for _ in range(2):  # second chooser takes the memoised constants
            chooser, rng = cls(n, theta), random.Random(99)
            draws = [chooser.choose(rng) for _ in range(10_000)]
            digest = hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
            assert digest == self.PINNED[(cls, n, theta)]

    @pytest.mark.parametrize("n,theta", [(1000, 0.99), (50_000, 0.7)])
    def test_zipfian_matches_unmemoised_reference(self, n, theta):
        chooser, rng = ZipfianKeys(n, theta), random.Random(5)
        assert [chooser.choose(rng) for _ in range(10_000)] == gray_zipfian_draws(
            n, theta, random.Random(5), 10_000
        )
