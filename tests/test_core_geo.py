"""Geo-replication tests: visibility, conflicts, global stability, causality."""

import pytest

from helpers import make_geo_store, run_op

from repro.net import wan_latency
from repro.storage import VersionVector


class TestRemoteVisibility:
    def test_write_becomes_visible_remotely(self):
        store = make_geo_store()
        a = store.session("dc0")
        b = store.session("dc1")
        run_op(store, a.put("k", "hello"))
        store.run(until=1.0)
        assert run_op(store, b.get("k")).value == "hello"

    def test_visibility_latency_tracks_wan(self):
        store = make_geo_store()
        a = store.session("dc0")
        run_op(store, a.put("k", "v"))
        store.run(until=2.0)
        samples = store.protocol_stats()["visibility_samples"]
        assert len(samples) == 1
        assert 0.8 * store.config.wan_median < samples[0] < 4 * store.config.wan_median

    def test_local_write_latency_unaffected_by_wan(self):
        store = make_geo_store()
        a = store.session("dc0")
        fut = a.put("k", "v")
        store.run(until=1.0)
        latency = fut.resolved_at
        assert latency < store.config.wan_median / 2

    def test_remote_update_applied_via_chain(self):
        store = make_geo_store()
        a = store.session("dc0")
        run_op(store, a.put("k", "v"))
        store.run(until=2.0)
        view = store.managers["dc1"].view
        for name in view.chain_for("k"):
            node = next(n for n in store.nodes["dc1"] if n.name == name)
            assert node.store.get("k").value == "v"


class TestGlobalStability:
    def test_write_becomes_globally_stable(self):
        store = make_geo_store()
        a = store.session("dc0")
        run_op(store, a.put("k", "v"))
        store.run(until=2.0)
        samples = store.protocol_stats()["global_stability_samples"]
        assert len(samples) == 1
        # at least one WAN round trip
        assert samples[0] > 1.5 * store.config.wan_median

    def test_nodes_learn_global_stability(self):
        store = make_geo_store()
        a = store.session("dc0")
        version = run_op(store, a.put("k", "v")).version
        store.run(until=2.0)
        for site in store.sites:
            view = store.managers[site].view
            for name in view.chain_for("k"):
                node = next(n for n in store.nodes[site] if n.name == name)
                assert node.plane.global_stability.is_stable("k", version)

    def test_client_prunes_entry_only_after_global_stability(self):
        store = make_geo_store()
        a = store.session("dc0")
        run_op(store, a.put("k", "v"))
        # DC-stable quickly, but not yet globally:
        store.run(until=store.sim.now + 0.005)
        run_op(store, a.get("k"))
        assert "k" in a.dependency_table()
        # After the WAN round trip it is globally stable:
        store.run(until=store.sim.now + 0.5)
        run_op(store, a.get("k"))
        assert a.dependency_table() == {}


class TestConflicts:
    def test_concurrent_writes_converge_to_same_value(self):
        store = make_geo_store()
        a = store.session("dc0")
        b = store.session("dc1")
        fa = a.put("k", "from-dc0")
        fb = b.put("k", "from-dc1")
        store.run(until=3.0)
        assert fa.done() and fb.done()
        assert store.converged("k")
        ra = run_op(store, a.get("k"))
        rb = run_op(store, b.get("k"))
        assert ra.value == rb.value
        assert ra.version == rb.version == VersionVector({"dc0": 1, "dc1": 1})

    def test_conflict_count_recorded(self):
        store = make_geo_store()
        a = store.session("dc0")
        b = store.session("dc1")
        a.put("k", "x")
        b.put("k", "y")
        store.run(until=3.0)
        assert store.protocol_stats()["conflicts_resolved"] >= 1

    def test_custom_resolver_merges_values(self):
        from repro.core import ChainReactionConfig, ChainReactionStore
        from repro.storage import MergingResolver

        config = ChainReactionConfig(
            sites=("dc0", "dc1"), servers_per_site=4, chain_length=3,
            ack_k=2, seed=7, service_time=0.0,
        )
        store = ChainReactionStore(
            config, resolver=MergingResolver(lambda x, y: sorted(set(x) | set(y)))
        )
        a = store.session("dc0")
        b = store.session("dc1")
        a.put("cart", ["apples"])
        b.put("cart", ["bread"])
        store.run(until=3.0)
        result = run_op(store, a.get("cart"))
        assert result.value == ["apples", "bread"]


class TestCausalDelivery:
    def _relay_setup(self, geo_causal_delivery):
        store = make_geo_store(
            n_sites=3, geo_causal_delivery=geo_causal_delivery, ack_k=2
        )
        # Asymmetric triangle: the direct dc0→dc2 path is far slower than
        # dc0→dc1→dc2, so transitive dependencies can be overtaken.
        store.network.set_link("dc0", "dc2", wan_latency(0.200))
        store.network.set_link("dc0", "dc1", wan_latency(0.005))
        store.network.set_link("dc1", "dc2", wan_latency(0.005))
        return store

    def _run_relay_round(self, store):
        w = store.session("dc0")
        m = store.session("dc1")
        r = store.session("dc2")
        run_op(store, w.put("a", "new"))
        # Wait for a to reach dc1 and be readable there.
        for _ in range(100):
            if run_op(store, m.get("a")).value == "new":
                break
            store.run(until=store.sim.now + 0.005)
        run_op(store, m.put("b", "after-a"))
        # Give b time to cross the fast link but not a the slow one.
        store.run(until=store.sim.now + 0.05)
        return run_op(store, r.get("b")), run_op(store, r.get("a"))

    def test_causal_delivery_orders_transitive_updates(self):
        store = self._relay_setup(geo_causal_delivery=True)
        got_b, got_a = self._run_relay_round(store)
        if got_b.value == "after-a":
            assert got_a.value == "new", "b visible before its dependency a"

    def test_ablation_apply_on_arrival_reorders(self):
        store = self._relay_setup(geo_causal_delivery=False)
        got_b, got_a = self._run_relay_round(store)
        assert got_b.value == "after-a"
        assert got_a.value is None, "expected the anomaly: b visible, a not"
