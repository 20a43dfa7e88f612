"""Unit and property tests for consistent hashing and chain placement."""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro.cluster import HashRing, chain_positions
from repro.cluster.ring import _hash64
from repro.errors import ClusterError

SERVERS = [f"s{i}" for i in range(6)]


@pytest.fixture
def ring():
    return HashRing(SERVERS, virtual_nodes=32)


class TestConstruction:
    def test_rejects_duplicates(self):
        with pytest.raises(ClusterError):
            HashRing(["a", "a"])

    def test_rejects_bad_virtual_nodes(self):
        with pytest.raises(ClusterError):
            HashRing(["a"], virtual_nodes=0)

    def test_servers_preserved(self, ring):
        assert set(ring.servers) == set(SERVERS)
        assert len(ring) == 6


class TestChains:
    def test_chain_has_requested_length(self, ring):
        assert len(ring.chain_for("key1", 3)) == 3

    def test_chain_members_distinct(self, ring):
        for i in range(50):
            chain = ring.chain_for(f"key{i}", 3)
            assert len(set(chain)) == 3

    def test_chain_deterministic(self, ring):
        assert ring.chain_for("key1", 3) == ring.chain_for("key1", 3)

    def test_chain_clamped_to_ring_size(self):
        ring = HashRing(["a", "b"])
        assert len(ring.chain_for("k", 5)) == 2

    def test_shorter_chain_is_prefix_of_longer(self, ring):
        for i in range(20):
            key = f"key{i}"
            assert ring.chain_for(key, 2) == ring.chain_for(key, 3)[:2]

    def test_head_for(self, ring):
        assert ring.head_for("key1") == ring.chain_for("key1", 3)[0]

    def test_empty_ring_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ClusterError):
            ring.without("a").chain_for("k", 1)

    def test_invalid_length_rejected(self, ring):
        with pytest.raises(ClusterError):
            ring.chain_for("k", 0)


class TestMembershipChanges:
    def test_without_removes_server(self, ring):
        smaller = ring.without("s0")
        assert "s0" not in smaller.servers
        assert len(smaller) == 5

    def test_without_unknown_rejected(self, ring):
        with pytest.raises(ClusterError):
            ring.without("ghost")

    def test_with_server_adds(self, ring):
        bigger = ring.with_server("s6")
        assert "s6" in bigger.servers

    def test_with_existing_rejected(self, ring):
        with pytest.raises(ClusterError):
            ring.with_server("s0")

    def test_surviving_members_keep_relative_order(self, ring):
        """Removing a server never reorders the remaining chain members —
        the property chain repair relies on."""
        smaller = ring.without("s0")
        for i in range(50):
            key = f"key{i}"
            old = [s for s in ring.chain_for(key, 3) if s != "s0"]
            new = smaller.chain_for(key, 3)
            assert new[: len(old)] == old

    def test_removal_moves_bounded_fraction_of_keys(self, ring):
        smaller = ring.without("s0")
        keys = [f"key{i}" for i in range(300)]
        moved = sum(
            1
            for k in keys
            if "s0" not in ring.chain_for(k, 3)
            and ring.chain_for(k, 3) != smaller.chain_for(k, 3)
        )
        # Chains not involving the removed server mostly stay put.
        assert moved < 30


def successor_walk(servers, virtual_nodes, key, length):
    """Reference placement: hash the key onto the ring, then walk
    successors collecting distinct servers. Returns (point index, chain)."""
    points = sorted(
        (_hash64(f"{server}#{v}"), server)
        for server in servers
        for v in range(virtual_nodes)
    )
    start = bisect.bisect_right([h for h, _ in points], _hash64(key)) % len(points)
    chain, idx = [], start
    while len(chain) < min(length, len(servers)):
        server = points[idx][1]
        if server not in chain:
            chain.append(server)
        idx = (idx + 1) % len(points)
    return start, chain


class TestPrecomputedChains:
    KEYS = [f"key{i}" for i in range(4000)]

    @pytest.mark.parametrize("length", [1, 2, 3, 9])
    def test_chains_equal_the_successor_walk_from_every_point(self, length):
        base = HashRing(SERVERS, virtual_nodes=8)
        rings = [base, base.without("s2"), base.with_server("s6"),
                 base.without("s0").with_server("s7")]
        for ring in rings:
            points_hit = set()
            for key in self.KEYS:
                start, expected = successor_walk(ring.servers, 8, key, length)
                points_hit.add(start)
                assert ring.chain_for(key, length) == expected
                assert ring.chain_for(key, length) == expected  # cached answer
            assert len(points_hit) == len(ring.servers) * 8

    def test_keys_on_one_point_share_one_chain_list(self):
        ring = HashRing(SERVERS, virtual_nodes=8)
        by_point = {}
        for key in self.KEYS:
            start, _ = successor_walk(ring.servers, 8, key, 3)
            by_point.setdefault(start, []).append(ring.chain_for(key, 3))
        for chains in by_point.values():
            assert all(chain is chains[0] for chain in chains)


class TestBalance:
    def test_load_roughly_balanced(self, ring):
        keys = [f"key{i}" for i in range(1200)]
        counts = ring.load_map(keys, 3)
        expected = 1200 * 3 / 6
        for server, count in counts.items():
            assert 0.5 * expected < count < 1.6 * expected, counts


class TestChainPositions:
    def test_index_found(self):
        assert chain_positions(["a", "b", "c"], "b") == 1

    def test_absent_returns_none(self):
        assert chain_positions(["a", "b"], "z") is None


class TestProperties:
    @given(st.text(min_size=1, max_size=20))
    def test_every_key_gets_a_valid_chain(self, key):
        ring = HashRing(SERVERS, virtual_nodes=8)
        chain = ring.chain_for(key, 3)
        assert len(chain) == 3
        assert set(chain) <= set(SERVERS)
        assert len(set(chain)) == 3
