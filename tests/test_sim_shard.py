"""Unit tests for the sharded-engine building blocks: kernel windows,
envelope ordering, the shard boundary trap, and spec validation.

The end-to-end determinism proof (workers=1 vs N byte-identical traces)
lives in ``test_parallel_determinism.py``; this file covers the pieces
in isolation.
"""

import dataclasses
import pickle
from typing import Any, ClassVar

import pytest

from repro.cluster.failure import FaultEvent
from repro.errors import ConfigError, SimulationError
from repro.net import Address, Envelope, FixedLatency, Message, Network, ShardBoundary
from repro.sim import Simulator
from repro.sim.shard import ExperimentSpec, ShardedSimulator, experiment_lookahead
from repro.workload.ycsb import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class Note(Message):
    type_name: ClassVar[str] = "note"
    body: Any = None


A = Address("dc0", "a")
R = Address("dc1", "r")  # remote: lives on another shard


def tiny_workload() -> WorkloadSpec:
    return WorkloadSpec(
        "tiny",
        read_proportion=0.5,
        update_proportion=0.5,
        insert_proportion=0.0,
        record_count=20,
        distribution="uniform",
        value_size=16,
    )


# ----------------------------------------------------------------------
# kernel: next_event_time / run_window
# ----------------------------------------------------------------------


class TestKernelWindows:
    def test_next_event_time_empty(self, sim):
        assert sim.next_event_time() is None

    def test_next_event_time_peeks_earliest(self, sim):
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        assert sim.next_event_time() == 1.0
        assert sim.now == 0.0  # peeking does not advance the clock

    def test_next_event_time_skips_cancelled(self, sim):
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(3.0, lambda: None)
        handle.cancel()
        assert sim.next_event_time() == 3.0

    def test_run_window_bound_is_strict(self, sim):
        fired = []
        for t in (0.5, 1.0, 1.5):
            sim.schedule_at(t, fired.append, t)
        executed = sim.run_window(1.0)
        # Events strictly below the bound run; the event AT the bound
        # stays — same-instant merge order is decided after injection.
        assert fired == [0.5]
        assert executed == 1
        assert sim.next_event_time() == 1.0

    def test_run_window_does_not_advance_clock_to_bound(self, sim):
        sim.schedule_at(0.25, lambda: None)
        sim.run_window(1.0)
        # The clock sits at the last executed event, not the bound:
        # injected envelopes may be timestamped anywhere >= bound.
        assert sim.now == 0.25

    def test_run_window_then_run_completes(self, sim):
        fired = []
        for t in (0.5, 1.5):
            sim.schedule_at(t, fired.append, t)
        sim.run_window(1.0)
        sim.run(until=2.0)
        assert fired == [0.5, 1.5]
        assert sim.now == 2.0


# ----------------------------------------------------------------------
# envelopes + boundary
# ----------------------------------------------------------------------


def make_boundary(lookahead: float = 0.05):
    sim = Simulator()
    net = Network(sim, lan=FixedLatency(0.001), wan=FixedLatency(0.010))
    boundary = ShardBoundary(
        net, shard_id=0, remote_sites=frozenset({"dc1"}), lookahead=lookahead
    )
    net.attach_boundary(boundary)
    return sim, net, boundary


class TestEnvelope:
    def test_sort_key_orders_time_then_shard_then_seq(self):
        def env(t, shard, seq):
            return Envelope(t, shard, seq, A, R, Note())

        batch = [env(2.0, 0, 1), env(1.0, 1, 2), env(1.0, 0, 9), env(1.0, 0, 3)]
        ordered = sorted(batch, key=Envelope.sort_key)
        assert [e.sort_key() for e in ordered] == [
            (1.0, 0, 3),
            (1.0, 0, 9),
            (1.0, 1, 2),
            (2.0, 0, 1),
        ]

    def test_envelope_pickles(self):
        env = Envelope(1.0, 0, 1, A, R, Note(body="x"))
        clone = pickle.loads(pickle.dumps(env))
        assert clone == env


class TestShardBoundary:
    def test_rejects_nonpositive_lookahead(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(SimulationError):
            ShardBoundary(net, 0, frozenset({"dc1"}), lookahead=0.0)

    def test_remote_send_is_trapped_not_raised(self):
        sim, net, boundary = make_boundary()
        net.send(A, R, Note(body="hi"))
        out = boundary.drain()
        assert len(out) == 1 and out[0].dst == R
        assert boundary.envelopes_sent == 1
        assert net.stats.cross_site_messages == 1  # sender-side accounting

    def test_delay_clamped_to_lookahead(self):
        # WAN model says 10 ms, but the boundary promised >= 50 ms:
        # the clamp keeps the conservative invariant even if a model
        # undercuts its declared floor.
        sim, net, boundary = make_boundary(lookahead=0.05)
        net.send(A, R, Note())
        (env,) = boundary.drain()
        assert env.deliver_at == pytest.approx(0.05)

    def test_fifo_per_link(self):
        sim, net, boundary = make_boundary(lookahead=0.05)
        net.send(A, R, Note(body=1))
        net.send(A, R, Note(body=2))
        first, second = boundary.drain()
        assert second.deliver_at > first.deliver_at
        assert second.seq > first.seq

    def test_drain_clears(self):
        sim, net, boundary = make_boundary()
        net.send(A, R, Note())
        assert len(boundary.drain()) == 1
        assert boundary.drain() == []

    def test_inject_delivers_through_network(self):
        sim, net, boundary = make_boundary()
        inbox = []
        local = Address("dc0", "local")
        net.register(local, lambda msg, src: inbox.append(msg.body))
        envelopes = [
            Envelope(0.2, 1, 2, R, local, Note(body="second")),
            Envelope(0.1, 1, 1, R, local, Note(body="first")),
        ]
        boundary.inject(envelopes)
        sim.run()
        assert inbox == ["first", "second"]
        assert boundary.envelopes_injected == 2

    def test_inject_stale_envelope_raises(self):
        sim, net, boundary = make_boundary()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            boundary.inject([Envelope(0.5, 1, 1, R, A, Note())])

    def test_crashed_destination_drops_at_delivery(self):
        # Crash state is re-checked in the receiving shard at delivery
        # time, mirroring an intra-shard send.
        sim, net, boundary = make_boundary()
        local = Address("dc0", "local")
        net.register(local, lambda msg, src: None)
        net.set_down(local, True)
        boundary.inject([Envelope(0.1, 1, 1, R, local, Note())])
        dropped_before = net.stats.messages_dropped
        sim.run()
        assert net.stats.messages_dropped == dropped_before + 1

    def test_unknown_site_still_raises(self):
        from repro.errors import AddressUnknownError

        sim, net, boundary = make_boundary()
        with pytest.raises(AddressUnknownError):
            net.send(A, Address("dc9", "ghost"), Note())


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------


class TestExperimentSpec:
    def test_rejects_unshardable_protocol(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(workload=tiny_workload(), protocol="eventual")

    def test_rejects_duplicate_sites(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(workload=tiny_workload(), sites=("dc0", "dc0"))

    def test_client_sites_round_robin(self):
        spec = ExperimentSpec(
            workload=tiny_workload(), sites=("dc0", "dc1", "dc2"), n_clients=5
        )
        assert spec.client_sites() == [
            (0, "dc0"),
            (1, "dc1"),
            (2, "dc2"),
            (3, "dc0"),
            (4, "dc1"),
        ]

    def test_stop_sums_phases(self):
        spec = ExperimentSpec(
            workload=tiny_workload(), duration=1.0, warmup=0.25, drain=0.5
        )
        assert spec.stop == pytest.approx(1.75)

    def test_lookahead_is_wan_floor(self):
        from repro.net import wan_latency

        spec = ExperimentSpec(workload=tiny_workload())
        assert experiment_lookahead(spec) == pytest.approx(
            wan_latency(spec.wan_median).min_latency()
        )

    def test_lookahead_honors_override(self):
        base = ExperimentSpec(workload=tiny_workload())
        doubled = ExperimentSpec(
            workload=tiny_workload(), overrides=(("wan_median", 0.080),)
        )
        assert experiment_lookahead(doubled) == pytest.approx(
            2 * experiment_lookahead(base)
        )

    def test_spec_pickles(self):
        spec = ExperimentSpec(
            workload=tiny_workload(),
            faults=(
                FaultEvent(0.5, "crash", "dc0:s1", wipe=True),
                FaultEvent(0.6, "slow", "dc0", "dc1", factor=2.0),
            ),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_speed_up_fault_rejected(self):
        # factor < 1 would let a cross-shard message beat the lookahead.
        with pytest.raises(ConfigError):
            ExperimentSpec(
                workload=tiny_workload(),
                faults=(FaultEvent(0.5, "slow", "dc0", "dc1", factor=0.5),),
            )


class TestFaultEvent:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "meteor")

    def test_crash_needs_site_and_node(self):
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "crash", "dc0")

    def test_partition_needs_both_sites(self):
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "partition", "dc0")

    def test_heal_needs_its_pair(self):
        with pytest.raises(ConfigError):
            FaultEvent(1.0, "heal")
        FaultEvent(1.0, "heal", "dc0", "dc1")  # no raise


class TestShardedSimulatorConfig:
    def test_rejects_zero_workers(self):
        spec = ExperimentSpec(workload=tiny_workload())
        with pytest.raises(ConfigError):
            ShardedSimulator(spec, workers=0)

    def test_workers_clamped_to_shard_count(self):
        spec = ExperimentSpec(workload=tiny_workload(), sites=("dc0", "dc1"))
        assert ShardedSimulator(spec, workers=8).workers == 2

    def test_zero_lookahead_multisite_rejected(self, monkeypatch):
        # No shipped model has a zero floor (LogNormal rejects median=0
        # outright), so force one to exercise the degrade-to-serial guard.
        import repro.sim.shard as shard_mod

        monkeypatch.setattr(shard_mod, "experiment_lookahead", lambda spec: 0.0)
        spec = ExperimentSpec(workload=tiny_workload())
        with pytest.raises(ConfigError):
            ShardedSimulator(spec, workers=2)


class TestLocalSitesBuilds:
    def test_registry_rejects_local_sites_for_unshardable_protocol(self):
        from repro.baselines.registry import build_store

        with pytest.raises(ConfigError):
            build_store("eventual", sites=("dc0", "dc1"), local_sites=("dc0",))

    def test_datastore_rejects_unknown_local_site(self):
        from repro.baselines.registry import build_store

        with pytest.raises(ConfigError):
            build_store("chainreaction", sites=("dc0", "dc1"), local_sites=("dc9",))
