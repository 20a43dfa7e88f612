"""The ``notices+batch`` plane: protocol batching + metadata GC (PR 4).

Covers the coalescer machinery, the BulkStable cascade, the sealing GC
(floors, monotonicity, re-opening), client dep pruning, the
O(1) waiter counter, the VersionVector merge fast path, the
message-count reduction of a batched run, and the determinism of the
built-in fault campaigns with batching enabled.
"""

from __future__ import annotations

import pytest

from helpers import make_geo_store, make_store, run_op

from repro.core.batching import StabilityCoalescer, UpdateCoalescer
from repro.core.stability import StabilityTracker
from repro.faults import campaign, sanitize_campaign
from repro.net.network import Address
from repro.sim import Simulator
from repro.storage.version import VersionVector, ZERO


def vv(**entries):
    return VersionVector(entries)


BATCH = {"stability": "notices+batch"}


class FakeActor:
    """Timer-capable stand-in so coalescers can be tested in isolation."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def set_timer(self, delay, callback, *args):
        return self.sim.schedule(delay, callback, *args)


class TestCoalescer:
    def test_flush_on_window(self):
        sim = Simulator()
        actor = FakeActor(sim)
        out = []
        c = StabilityCoalescer(actor, 0.01, 128, lambda dst, e: out.append((dst, e)))
        dst = Address("dc0", "s1")
        c.add(dst, "a", vv(dc0=1))
        c.add(dst, "b", vv(dc0=2))
        assert out == [] and c.pending_entries() == 2
        sim.run(until=0.02)
        assert len(out) == 1
        assert out[0][0] == dst
        assert dict(out[0][1]) == {"a": vv(dc0=1), "b": vv(dc0=2)}
        assert c.batches_flushed == 1 and c.entries_enqueued == 2
        assert c.messages_saved() == 1

    def test_same_key_entries_merge(self):
        sim = Simulator()
        actor = FakeActor(sim)
        out = []
        c = StabilityCoalescer(actor, 0.01, 128, lambda dst, e: out.append(e))
        dst = Address("dc0", "s1")
        c.add(dst, "a", vv(dc0=1))
        c.add(dst, "a", vv(dc0=3))
        c.add(dst, "a", vv(dc1=2))
        sim.run(until=0.02)
        assert out == [(("a", vv(dc0=3, dc1=2)),)]

    def test_eager_flush_at_max_entries(self):
        sim = Simulator()
        actor = FakeActor(sim)
        out = []
        c = StabilityCoalescer(actor, 10.0, 3, lambda dst, e: out.append(e))
        dst = Address("dc0", "s1")
        for i in range(3):
            c.add(dst, f"k{i}", vv(dc0=1))
        # max_entries reached: flushed without waiting for the window
        assert len(out) == 1 and len(out[0]) == 3
        assert c.eager_flushes == 1

    def test_update_coalescer_preserves_order_without_dedup(self):
        sim = Simulator()
        actor = FakeActor(sim)
        out = []
        c = UpdateCoalescer(actor, 0.01, 128, lambda dst, u: out.append(u))
        dst = Address("dc1", "geoproxy")
        c.add(dst, "u1")
        c.add(dst, "u2")
        c.add(dst, "u1")
        sim.run(until=0.02)
        assert out == [("u1", "u2", "u1")]

    def test_reset_drops_buffers_and_rearms_cleanly(self):
        sim = Simulator()
        actor = FakeActor(sim)
        out = []
        c = StabilityCoalescer(actor, 0.01, 128, lambda dst, e: out.append(e))
        dst = Address("dc0", "s1")
        c.add(dst, "a", vv(dc0=1))
        c.reset()  # crash: buffered entry and armed timer are pre-crash state
        assert c.pending_entries() == 0
        c.add(dst, "b", vv(dc0=2))  # post-recovery add must re-arm
        sim.run(until=0.05)
        assert out == [(("b", vv(dc0=2)),)]

    def test_per_destination_buffers_flush_separately(self):
        sim = Simulator()
        actor = FakeActor(sim)
        out = []
        c = StabilityCoalescer(actor, 0.01, 128, lambda dst, e: out.append(dst))
        c.add(Address("dc0", "s1"), "a", vv(dc0=1))
        c.add(Address("dc0", "s2"), "a", vv(dc0=1))
        sim.run(until=0.02)
        assert out == [Address("dc0", "s1"), Address("dc0", "s2")]


class TestTrackerSealing:
    def test_pending_waiters_is_counted(self):
        sim = Simulator()
        tracker = StabilityTracker()
        assert tracker.pending_waiters() == 0
        f1 = tracker.wait(sim, "k", vv(dc0=2))
        f2 = tracker.wait(sim, "j", vv(dc0=1))
        assert tracker.pending_waiters() == 2
        tracker.record("k", vv(dc0=2))
        assert tracker.pending_waiters() == 1
        tracker.record("j", vv(dc0=1))
        assert tracker.pending_waiters() == 0
        assert f1.done() and f2.done()

    def test_drop_entry_refuses_waiters_and_missing_keys(self):
        sim = Simulator()
        tracker = StabilityTracker()
        assert not tracker.drop_entry("missing")
        tracker.record("k", vv(dc0=1))
        tracker.wait(sim, "k", vv(dc0=5))
        assert not tracker.drop_entry("k")

    def test_floor_answers_for_sealed_keys(self):
        tracker = StabilityTracker()
        tracker.set_floor(lambda key: vv(dc0=3) if key == "k" else ZERO)
        tracker.record("k", vv(dc0=3))
        assert tracker.drop_entry("k")
        assert tracker.entry_count() == 0
        # the floor keeps answering exactly as the live entry did
        assert tracker.is_stable("k", vv(dc0=3))
        assert not tracker.is_stable("k", vv(dc0=4))
        assert tracker.stable_version("k") == vv(dc0=3)

    def test_record_after_seal_merges_with_floor(self):
        tracker = StabilityTracker()
        tracker.set_floor(lambda key: vv(dc0=3))
        tracker.record("k", vv(dc0=3))
        tracker.drop_entry("k")
        tracker.record("k", vv(dc1=1))  # re-opened: merged with the floor
        assert tracker.stable_version("k") == vv(dc0=3, dc1=1)


class TestMergeFastPath:
    def test_dominating_operand_returned_by_identity(self):
        a = vv(dc0=3, dc1=2)
        b = vv(dc0=1)
        assert a.merge(b) is a
        assert b.merge(a) is a
        assert a.merge(a) is a

    def test_zero_merges_by_identity(self):
        a = vv(dc0=3)
        assert a.merge(ZERO) is a
        assert ZERO.merge(a) is a
        assert ZERO.merge(ZERO) is ZERO

    def test_concurrent_vectors_allocate_the_join(self):
        a = vv(dc0=2)
        b = vv(dc1=3)
        merged = a.merge(b)
        assert merged == vv(dc0=2, dc1=3)
        assert merged is not a and merged is not b


class TestBatchedProtocol:
    def test_batched_run_reduces_stability_messages(self):
        def messages(overrides):
            store = make_geo_store(**overrides)
            session = store.session(session_id="c0")
            for i in range(30):
                run_op(store, session.put(f"k{i % 5}", f"v{i}"))
            store.run(until=store.sim.now + 1.0)
            return store.network.stats

        plain = messages({})
        batched = messages(BATCH)
        plain_stab = plain.count_of("chain-stable")
        batched_stab = batched.count_of("chain-stable", "bulk-stable")
        assert plain_stab > 0
        assert batched.count_of("bulk-stable") > 0
        assert batched_stab < plain_stab
        plain_glob = plain.count_of("global-stable-notice")
        batched_glob = batched.count_of(
            "global-stable-notice", "global-stable-batch"
        )
        assert batched_glob < plain_glob

    def test_batched_writes_are_read_back(self):
        store = make_geo_store(**BATCH)
        session = store.session(session_id="c0")
        run_op(store, session.put("k", "v1"))
        assert run_op(store, session.get("k")).value == "v1"
        run_op(store, session.put("k", "v2"))
        assert run_op(store, session.get("k")).value == "v2"

    def test_remote_site_sees_batched_updates_in_order(self):
        store = make_geo_store(**BATCH)
        writer = store.session(site="dc0", session_id="w")
        for i in range(5):
            run_op(store, writer.put("k", f"v{i}"))
        store.run(until=store.sim.now + 1.0)
        reader = store.session(site="dc1", session_id="r")
        assert run_op(store, reader.get("k")).value == "v4"

    def test_sealing_reclaims_tracker_entries(self):
        store = make_geo_store(**BATCH)
        session = store.session(session_id="c0")
        keys = [f"k{i}" for i in range(10)]
        for key in keys:
            run_op(store, session.put(key, "v"))
        nodes = store.servers()
        settled = {}  # (node, key) -> when both trackers first cover the record
        sealed = {}  # (node, key) -> when the node sealed it
        sim = store.sim
        # Well inside the 0.25 s a periodic sweep would have needed.
        deadline = sim.now + 0.2
        while sim.now < deadline and sim.step():
            for node in nodes:
                for key in keys:
                    record = node.store.get_record(key)
                    if record is None:
                        continue
                    slot = (node.address, key)
                    if key in node.plane._sealed:
                        sealed.setdefault(slot, sim.now)
                    elif slot not in settled and node.plane.stability.is_stable(
                        key, record.version
                    ) and node.plane.global_stability.is_stable(key, record.version):
                        settled[slot] = sim.now
        assert len(sealed) == 2 * 3 * len(keys)  # every replica, both DCs
        # No step in which a key answered stable everywhere unsealed.
        assert settled == {}
        metadata = store.protocol_stats()["metadata"]
        assert metadata["keys_sealed"] == len(sealed)
        assert metadata["global_floor_entries"] == len(sealed)
        assert metadata["stable_map_entries"] == 0
        # sealed keys still answer both stability questions off the floor
        for node in nodes:
            for key, version in node.plane._sealed.items():
                assert node.store.version_of(key) == version
                assert node.plane.stability.stable_version(key) == version
                assert node.plane.global_stability.stable_version(key) == version
            assert node._stable_records == {}

    def test_a_repair_transfer_of_a_sealed_record_keeps_its_answer(self):
        # A duplicate apply of the sealed version — what a repair
        # transfer does first — once dropped the DC answer to ZERO while
        # the global answer held.
        store = make_geo_store(**BATCH)
        session = store.session(session_id="c0")
        run_op(store, session.put("k", "v"))
        store.run(until=store.sim.now + 1.0)
        replicas = [n for n in store.servers() if n.store.get_record("k") is not None]
        assert len(replicas) == 6 and all("k" in n.plane._sealed for n in replicas)
        for node in replicas:
            record = node.store.get_record("k")
            sealed = node.plane._sealed["k"]
            node._apply_local("k", record.value, record.version, record.stamp, {})
            assert node.plane.stability.stable_version("k") == sealed
            assert node.plane.global_stability.stable_version("k") == sealed
            reply = node.read_reply("k")
            assert reply.version == sealed and reply.stable and reply.globally

    def test_sealing_keeps_the_dependencies_a_forwarded_read_hands_on(self):
        # Under partial replication a write is globally stable once its
        # shard's owners hold it; a reader at a non-owner DC still needs
        # the write's dependencies to check its own DC against.
        store = make_store(
            sites=("dc0", "dc1", "dc2"), replication_degree=2, **BATCH
        )
        session = store.session("dc0", "w")
        run_op(store, session.put("d", "1"))
        run_op(store, session.put("w", "2"))
        store.run(until=store.sim.now + 1.0)
        owners = [n for n in store.servers() if n.store.get_record("w") is not None]
        assert owners and all("w" in n.plane._sealed for n in owners)
        for node in owners:
            fwd = node.read_reply("w", forwarded=True).fwd_deps
            assert fwd is not None and set(fwd) == {"d"}

    def test_sealed_key_reads_report_stable(self):
        store = make_geo_store(**BATCH)
        session = store.session(session_id="c0")
        run_op(store, session.put("k", "v"))
        store.run(until=store.sim.now + 2.0)
        result = run_op(store, session.get("k"))
        assert result.value == "v" and result.stable

    def test_client_dep_table_prunes_on_global_stability(self):
        # accumulate-forever ablation on the sealing plane: entries must still
        # disappear once a read observes global stability
        store = make_geo_store(collapse_deps_on_put=False, **BATCH)
        session = store.session(session_id="c0")
        run_op(store, session.put("k", "v"))
        assert session.metadata_entries() == 1
        store.run(until=store.sim.now + 2.0)
        run_op(store, session.get("k"))
        assert session.metadata_entries() == 0

    def test_protocol_stats_report_the_plane_that_ran(self):
        # Was: ``plane == "notices"`` for a batched run, and the
        # ``batching`` block gated on a config boolean.
        def stats(**overrides):
            store = make_geo_store(**overrides)
            run_op(store, store.session(session_id="c0").put("k", "v"))
            store.run(until=store.sim.now + 1.0)
            return store.protocol_stats()

        batched = stats(**BATCH)
        assert batched["stability_plane"]["plane"] == "notices+batch"
        assert list(batched["batching"]) == ["stability", "shipping", "global"]
        assert all(stream["entries_enqueued"] > 0 for stream in batched["batching"].values())
        for plane in ("notices", "clock"):
            plain = stats(stability=plane)
            assert plain["stability_plane"]["plane"] == plane and "batching" not in plain

    def test_metadata_plateau_vs_unbatched(self):
        def final_metadata(overrides):
            store = make_geo_store(**overrides)
            session = store.session(session_id="c0")
            for i in range(40):
                run_op(store, session.put(f"k{i}", "v"))
            store.run(until=store.sim.now + 2.0)
            return store.protocol_stats()["metadata"]["stable_map_entries"]

        assert final_metadata(BATCH) < final_metadata({})


class TestBatchingFaultCampaigns:
    @pytest.mark.parametrize("name", ["crash-head", "rolling-crashes"])
    def test_campaign_deterministic_with_batching(self, name):
        spec = campaign(name)
        spec = spec.with_updates(
            clients=4, overrides={**(spec.overrides or {}), **BATCH}
        )
        report = sanitize_campaign(spec, seed=7)
        assert report.divergence is None, report.format()
        assert report.clean, report.format()


class TestGoldenDefaultsUnchanged:
    def test_a_plane_name_is_the_only_spelling(self):
        # The states the deleted fields expressed (batching without
        # sealing, either of them on the clock plane) have no spelling.
        from repro.core.config import STABILITY_PLANES, ChainReactionConfig
        from repro.errors import ConfigError

        assert ChainReactionConfig().stability == "notices"
        for gone in ("protocol_batching", "metadata_gc"):
            with pytest.raises(TypeError, match=gone):
                ChainReactionConfig(**{gone: True})
        with pytest.raises(ConfigError) as rejected:
            ChainReactionConfig(stability="batch")
        assert all(repr(plane) in str(rejected.value) for plane in STABILITY_PLANES)

    def test_config_validation(self):
        from repro.core.config import ChainReactionConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ChainReactionConfig(batch_flush_interval=0.0)
