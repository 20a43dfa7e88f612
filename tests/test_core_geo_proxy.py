"""Unit-level tests for the geo proxy's bookkeeping."""

import pytest

from helpers import make_geo_store, make_store, run_op

from repro.analysis.sanitize import MessageTap
from repro.core.config import STABILITY_PLANES
from repro.core.messages import GlobalAck, TailStable
from repro.core.stability_plane import plane_parts
from repro.storage import VersionVector


def vv(**entries):
    return VersionVector(entries)


class TestShipping:
    def test_local_origin_write_shipped_once(self):
        store = make_geo_store()
        s = store.session("dc0")
        run_op(store, s.put("k", "v"))
        store.run(until=2.0)
        assert store.proxies["dc0"].updates_shipped == 1
        assert store.proxies["dc1"].updates_shipped == 0
        assert store.proxies["dc1"].updates_applied == 1

    def test_duplicate_tail_stable_not_reshipped(self):
        store = make_geo_store()
        s = store.session("dc0")
        version = run_op(store, s.put("k", "v")).version
        # DC-stable locally but the WAN round trip (global stability) is
        # still in flight — the dedup window the token set protects.
        store.run(until=store.sim.now + 0.01)
        proxy = store.proxies["dc0"]
        tail_addr = proxy.view.address_of(proxy.view.chain_for("k")[-1])
        duplicate = TailStable(key="k", value="v", version=version, origin_site="dc0")
        proxy.on_tail_stable(duplicate, tail_addr)
        assert proxy.duplicate_ships == 1
        assert proxy.updates_shipped == 1

    def test_post_global_reship_is_harmless(self):
        """After global stability the dedup token is garbage-collected; a
        repair-driven re-announcement re-ships, and the remote store
        deduplicates — convergence is unaffected."""
        store = make_geo_store()
        s = store.session("dc0")
        version = run_op(store, s.put("k", "v")).version
        store.run(until=2.0)  # globally stable, token GC'd
        proxy = store.proxies["dc0"]
        tail_addr = proxy.view.address_of(proxy.view.chain_for("k")[-1])
        proxy.on_tail_stable(
            TailStable(key="k", value="v", version=version, origin_site="dc0"),
            tail_addr,
        )
        store.run(until=store.sim.now + 2.0)
        assert store.converged("k")

    def test_remote_origin_stability_acked_not_shipped(self):
        store = make_geo_store()
        s = store.session("dc0")
        run_op(store, s.put("k", "v"))
        store.run(until=2.0)
        # dc1's tail stabilised the remote write → GlobalAck, not a re-ship.
        assert store.proxies["dc1"].updates_shipped == 0
        assert store.proxies["dc0"].global_stability_samples


class TestGlobalAcks:
    def test_stray_ack_ignored(self):
        store = make_geo_store()
        proxy = store.proxies["dc0"]
        proxy.on_global_ack(
            GlobalAck(key="ghost", version=vv(dc0=9), site="dc1"),
            store.proxies["dc1"].address,
        )
        assert proxy.global_stability_samples == []

    def test_all_sites_must_ack(self):
        store = make_geo_store(n_sites=3)
        s = store.session("dc0")
        run_op(store, s.put("k", "v"))
        # Before any WAN round trip completes: not globally stable.
        store.run(until=store.sim.now + 0.005)
        assert store.proxies["dc0"].global_stability_samples == []
        store.run(until=store.sim.now + 1.0)
        assert len(store.proxies["dc0"].global_stability_samples) == 1


class TestViewTracking:
    def test_proxy_follows_view_epochs(self):
        store = make_geo_store()
        proxy = store.proxies["dc0"]
        epoch = proxy.view.epoch
        store.servers("dc0")[0].crash()
        store.run(until=store.sim.now + 1.0)
        assert proxy.view.epoch > epoch

    def test_stale_view_not_installed(self):
        store = make_geo_store()
        proxy = store.proxies["dc0"]
        import dataclasses

        stale = dataclasses.replace(proxy.view, epoch=0)
        proxy.set_view(stale)
        assert proxy.view.epoch >= 1


class TestPerKeyOrdering:
    def test_same_key_updates_apply_in_ship_order(self):
        """Rapid same-key writes at the origin arrive in order at the
        remote head even though their dependency waits run concurrently."""
        store = make_geo_store()
        s = store.session("dc0")
        for i in range(10):
            run_op(store, s.put("hot", f"v{i}"))
        store.run(until=store.sim.now + 2.0)
        # remote replicas all converged on the last value
        view = store.managers["dc1"].view
        for name in view.chain_for("hot"):
            node = next(n for n in store.nodes["dc1"] if n.name == name)
            assert node.store.get("hot").value == "v9"
        assert store.converged("hot")


class TestOneProxyPerSite:
    """Every site builds its geo-proxy, a single site's included: the
    proxy hosts the plane's per-site role on every deployment."""

    #: plane -> the message types a single site's proxy receives
    SINGLE_SITE_INBOUND = {
        "notices": set(),
        "notices+batch": set(),
        "clock": {"clock-report"},
    }

    @pytest.mark.parametrize("plane", STABILITY_PLANES)
    def test_a_single_site_has_exactly_one_proxy(self, plane):
        store = make_store(stability=plane)
        tap = MessageTap().attach(store.network)
        s = store.session()
        run_op(store, s.put("a", "1"))
        run_op(store, s.get("a"))
        run_op(store, s.put("b", "2"))
        store.run(until=store.sim.now + 0.5)
        assert list(store.proxies) == ["dc0"]
        proxy = store.proxies["dc0"]
        assert type(proxy.plane) is plane_parts(store.config).site
        to_proxy = {entry[3] for entry in tap.entries if entry[2] == str(proxy.address)}
        assert to_proxy == self.SINGLE_SITE_INBOUND[plane]
        stats = store.protocol_stats()
        assert (stats["updates_shipped"], stats["updates_applied"]) == (0, 0)
