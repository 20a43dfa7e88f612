"""Tests for the placement catalogs: the partial-replication shard
catalog's determinism (pinned owner tables), the ring-prefix property
that makes primaries degree-invariant, pickle/value semantics for the
sharded simulator and validation; what each peer receives of a shipment
(``prune``); and the config choosing ``FullReplication`` for the
default and for ``r = len(sites)``."""

import pickle

import pytest

from repro.cluster.placement import (
    SITE_VIRTUAL_NODES,
    FullReplication,
    ShardCatalog,
    shard_catalog,
)
from repro.core.config import ChainReactionConfig
from repro.core.messages import DepEntry, RemoteUpdate
from repro.errors import ClusterError, ConfigError
from repro.net.network import Address
from repro.storage.version import VersionVector

SITES = ("dc0", "dc1", "dc2")

#: Pinned placement for (dc0..dc2, 8 shards, r=2, 16 vnodes). Placement
#: is a pure function of these arguments; if this table moves, every
#: committed trace and BENCH_PR10.json arm moves with it — treat a
#: failure here as a placement-algorithm change, not a test update.
PINNED_OWNERS_R2 = (
    ("dc1", "dc0"),
    ("dc1", "dc2"),
    ("dc1", "dc0"),
    ("dc0", "dc2"),
    ("dc2", "dc1"),
    ("dc0", "dc2"),
    ("dc0", "dc2"),
    ("dc1", "dc2"),
)


class TestDeterminism:
    def test_pinned_owner_table(self):
        catalog = ShardCatalog(SITES, 8, 2)
        assert catalog.owners == PINNED_OWNERS_R2

    def test_rebuild_is_identical(self):
        a = ShardCatalog(SITES, 16, 2)
        b = ShardCatalog(SITES, 16, 2)
        assert a.owners == b.owners
        assert a == b and hash(a) == hash(b)

    def test_independent_of_any_seed(self):
        # placement must never read RNG or runtime state: two configs
        # that differ only in seed resolve every key identically
        for seed in (1, 7, 12345):
            config = ChainReactionConfig(
                sites=SITES, seed=seed, replication_degree=2, num_shards=8
            )
            assert config.placement().owners == PINNED_OWNERS_R2

    def test_virtual_node_count_is_part_of_the_identity(self):
        default = ShardCatalog(SITES, 64, 2)
        assert default.virtual_nodes == SITE_VIRTUAL_NODES
        coarse = ShardCatalog(SITES, 64, 2, virtual_nodes=1)
        assert coarse != default
        # with one vnode per site the walk order changes for at least
        # some shard — the count genuinely shapes placement
        assert coarse.owners != default.owners

    def test_primary_is_degree_invariant(self):
        """``chain_for`` returns ring prefixes, so the r=1 owner heads
        every longer owner list: all writes to a shard serialise through
        the same DC at every degree (what lets the A/B compare arms on
        identical key sequences)."""
        catalogs = [ShardCatalog(SITES, 32, r) for r in (1, 2, 3)]
        for shard in range(32):
            chains = [c.owners[shard] for c in catalogs]
            for shorter, longer in zip(chains, chains[1:]):
                assert longer[: len(shorter)] == shorter

    def test_owners_cover_and_balance(self):
        catalog = ShardCatalog(SITES, 16, 2)
        for owners in catalog.owners:
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert set(owners) <= set(SITES)
        # every site owns a nontrivial share of the keyspace
        for site in SITES:
            assert len(catalog.owned_shards(site)) >= 16 // len(SITES)


class TestLookups:
    def test_shard_of_stable_and_memoised(self):
        catalog = ShardCatalog(SITES, 8, 2)
        assert catalog.shard_of("user00000000") == 6
        assert catalog.shard_of("user00000000") == 6  # cached path
        assert catalog.primary_for("user00000000") == "dc0"

    def test_owners_for_matches_owned_shards(self):
        catalog = ShardCatalog(SITES, 16, 2)
        for i in range(50):
            key = f"user{i:08d}"
            shard = catalog.shard_of(key)
            owners = catalog.owners_for(key)
            assert owners == catalog.owners[shard]
            for site in SITES:
                assert catalog.owns(site, key) == (site in owners)
                assert (shard in catalog.owned_shards(site)) == (site in owners)

    def test_owns_all(self):
        assert all(ShardCatalog(SITES, 4, 3).owns_all(site) for site in SITES)
        partial = ShardCatalog(SITES, 4, 1)
        assert not any(partial.owns_all(site) for site in SITES)
        # a partial catalog's site may still own every shard
        one_shard = ShardCatalog(SITES, 1, 2)
        assert [one_shard.owns_all(site) for site in SITES] == [
            site in one_shard.owners[0] for site in SITES
        ]


class TestValueSemantics:
    def test_pickle_round_trip(self):
        catalog = ShardCatalog(SITES, 16, 2)
        clone = pickle.loads(pickle.dumps(catalog))
        assert clone == catalog
        assert clone.owners == catalog.owners
        # the memo cache is rebuilt empty, not shipped
        assert clone.shard_of("user00000000") == catalog.shard_of("user00000000")

    def test_factory_caches_per_shape(self):
        a = shard_catalog(SITES, 16, 2)
        b = shard_catalog(SITES, 16, 2)
        assert a is b
        assert shard_catalog(SITES, 16, 1) is not a

    def test_inequality_across_shapes(self):
        base = ShardCatalog(SITES, 16, 2)
        assert base != ShardCatalog(SITES, 8, 2)
        assert base != ShardCatalog(SITES, 16, 1)
        assert base != ShardCatalog(("dc0", "dc1"), 16, 2)
        assert base.__eq__(object()) is NotImplemented


class TestValidation:
    def test_degree_bounds(self):
        with pytest.raises(ClusterError, match="replication_degree"):
            ShardCatalog(SITES, 8, 0)
        with pytest.raises(ClusterError, match="replication_degree"):
            ShardCatalog(SITES, 8, 4)

    def test_shard_count_bounds(self):
        with pytest.raises(ClusterError, match="num_shards"):
            ShardCatalog(SITES, 0, 1)


def _peers(sites=SITES):
    return [Address(site, "geoproxy") for site in sites]


def _update(key, *dep_keys):
    deps = {dep: DepEntry(VersionVector({"dc0": 1}), 0) for dep in dep_keys}
    return RemoteUpdate(key=key, value="v", deps=deps, origin_site="dc0")


def _assert_full_replication(catalog):
    """Every site owns every key, and every peer receives the shipment
    itself: the same tuple, the same dependency maps."""
    assert isinstance(catalog, FullReplication)
    assert catalog.sites == SITES
    keys = [f"user{i:08d}" for i in range(50)]
    assert all(catalog.owns(site, key) for site in SITES for key in keys)
    assert all(catalog.owns_all(site) for site in SITES)
    peers = _peers()
    assert catalog.owner_peers(peers, keys[0]) is peers
    ship = (_update(keys[0], *keys[1:4]), _update(keys[4]))
    shares = catalog.prune(peers, ship)
    assert [peer for peer, _ in shares] == peers
    assert all(share is ship for _, share in shares)
    assert shares[0][1][0].deps is ship[0].deps


class TestPrune:
    """``ShardCatalog.prune``: owner peers only, each with the dependency
    entries on its own shards, the shipment itself where nothing drops."""

    CATALOG = ShardCatalog(SITES, 8, 2)

    def _key_owned_by(self, owners):
        return next(
            key for key in (f"user{i:08d}" for i in range(1000))
            if set(self.CATALOG.owners_for(key)) == set(owners)
        )

    def test_only_owner_peers_receive_an_update(self):
        key = self._key_owned_by(("dc0", "dc1"))
        peers = _peers(("dc1", "dc2"))
        assert self.CATALOG.owner_peers(peers, key) == [peers[0]]
        ship = (_update(key),)
        assert self.CATALOG.prune(peers, ship) == [(peers[0], ship)]

    def test_dependency_entries_are_pruned_per_peer(self):
        key = self._key_owned_by(("dc1", "dc2"))
        on_dc1 = self._key_owned_by(("dc0", "dc1"))
        on_both = self._key_owned_by(("dc1", "dc2"))
        ship = (_update(key, on_dc1, on_both),)
        (dc1, whole), (dc2, pruned) = self.CATALOG.prune(_peers(("dc1", "dc2")), ship)
        assert (dc1.site, dc2.site) == ("dc1", "dc2")
        assert whole is ship
        assert pruned is not ship and set(pruned[0].deps) == {on_both}
        assert pruned[0].deps[on_both] is ship[0].deps[on_both]
        assert (pruned[0].key, pruned[0].value) == (key, "v")

    def test_a_peer_with_nothing_to_receive_is_left_out(self):
        key = self._key_owned_by(("dc0", "dc1"))
        assert self.CATALOG.prune(_peers(("dc2",)), (_update(key),)) == []


class TestConfigGating:
    def test_default_is_full_replication(self):
        config = ChainReactionConfig(sites=SITES)
        assert config.replication_degree == 0
        _assert_full_replication(config.placement())

    def test_degree_equal_to_sites_is_full(self):
        # explicit r=sites is the default's catalog — the golden-trace
        # invariance gate depends on it
        config = ChainReactionConfig(sites=SITES, replication_degree=3)
        _assert_full_replication(config.placement())

    def test_partial_degree_builds_a_catalog(self):
        config = ChainReactionConfig(
            sites=SITES, replication_degree=2, num_shards=8
        )
        catalog = config.placement()
        assert isinstance(catalog, ShardCatalog)
        assert catalog.replication_degree == 2
        assert catalog.num_shards == 8
        assert config.placement() is catalog  # cached value object

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="replication_degree"):
            ChainReactionConfig(sites=SITES, replication_degree=4)
        with pytest.raises(ConfigError, match="num_shards"):
            ChainReactionConfig(sites=SITES, num_shards=0)
