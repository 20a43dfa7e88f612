"""Tests for the structured protocol tracer."""

import pytest

from helpers import make_geo_store, make_store, run_op
from test_pins import fields, pin_loop

from repro.baselines.registry import build_store
from repro.sim import Simulator
from repro.trace import TraceEvent, Tracer
from repro.workload import WorkloadRunner, workload


class TestTracerUnit:
    def test_records_in_time_order(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("a", "cat", "first")
        sim.schedule(1.0, tracer.record, "b", "cat", "second")
        sim.run()
        events = tracer.events()
        assert [e.event for e in events] == ["first", "second"]
        assert events[1].t == 1.0

    def test_filters(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("n1", "put", "recv", key="k1")
        tracer.record("n2", "put", "recv", key="k2")
        tracer.record("n1", "geo", "ship", key="k1")
        assert len(tracer.events(key="k1")) == 2
        assert len(tracer.events(category="geo")) == 1
        assert len(tracer.events(actor="n1")) == 2
        assert len(tracer.events(key="k1", category="put")) == 1

    def test_capacity_bounded_with_drop_count(self):
        sim = Simulator()
        tracer = Tracer(sim, capacity=5)
        for i in range(8):
            tracer.record("n", "c", f"e{i}")
        assert len(tracer) == 5
        assert tracer.dropped == 3
        assert tracer.events()[0].event == "e3"

    def test_counts_summary(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("n", "put", "recv")
        tracer.record("n", "put", "recv")
        tracer.record("n", "put", "ack")
        assert tracer.counts() == {"put:recv": 2, "put:ack": 1}

    def test_format_renders_fields(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("dc0:s1", "put", "apply", key="k", version="VV(dc0:1)")
        line = tracer.format()
        assert "dc0:s1" in line and "key=k" in line and "version=VV(dc0:1)" in line

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("n", "c", "e")
        tracer.clear()
        assert len(tracer) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(Simulator(), capacity=0)


class TestDeploymentTracing:
    def test_put_lifecycle_traced(self):
        store = make_store(ack_k=2)
        tracer = store.attach_tracer()
        s = store.session()
        run_op(store, s.put("photo", "x"))
        store.run(until=store.sim.now + 0.5)
        events = [e.event for e in tracer.events(key="photo")]
        assert events[0] == "received"
        assert "apply-head" in events
        assert "ack-client" in events
        assert "dc-stable" in events

    def test_geo_lifecycle_traced(self):
        store = make_geo_store()
        tracer = store.attach_tracer()
        s = store.session("dc0")
        run_op(store, s.put("k", "v"))
        store.run(until=store.sim.now + 1.0)
        categories = {e.category for e in tracer.events(key="k")}
        assert "geo" in categories  # shipped and remotely applied
        counts = tracer.counts()
        assert counts.get("geo:ship") == 1
        assert counts.get("geo:remote-apply") == 1
        assert counts.get("stability:global-stable", 0) > 0

    def test_repair_traced(self):
        store = make_store(servers_per_site=4)
        tracer = store.attach_tracer()
        store.servers()[0].crash()
        store.run(until=store.sim.now + 1.5)
        counts = tracer.counts()
        assert counts.get("repair:view-change", 0) >= 3  # each survivor
        assert counts.get("repair:sync-complete", 0) >= 3

    def test_no_tracer_means_no_overhead_or_errors(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("k", "v"))  # trace() calls are silent no-ops

    def test_dep_wait_traced(self):
        store = make_store(ack_k=1, servers_per_site=6)
        tracer = store.attach_tracer()
        view = store.managers["dc0"].view
        x, y = None, None
        for i in range(200):
            for j in range(200):
                if view.chain_for(f"y{j}")[0] not in view.chain_for(f"x{i}"):
                    x, y = f"x{i}", f"y{j}"
                    break
            if x:
                break
        s = store.session()
        run_op(store, s.put(x, "1"))
        run_op(store, s.put(y, "2"))
        store.run(until=store.sim.now + 0.5)
        assert tracer.counts().get("put:dep-wait", 0) >= 1


def timeline(plane):
    """A traced two-site YCSB-A run on ``plane``: the tracer's fields."""
    store = build_store(
        "chainreaction", sites=("dc0", "dc1"), servers_per_site=3, chain_length=2,
        seed=11, overrides={"stability": plane},
    )
    tracer = store.attach_tracer(capacity=1_000_000)
    WorkloadRunner(
        store, workload("A", record_count=20, value_size=32), n_clients=4,
        duration=0.3, warmup=0.05, drain=0.5, record_history=False,
    ).run()
    return fields(store, tracer=tracer)


class TestGuardedSitesTraceTheSame:
    """Six ``trace(..., version=str(version))`` sites format their vector
    only when a tracer is attached. With one attached the rendered
    timeline is what it always was: its length, counts and sha256 are
    pinned in ``pins.json`` (see ``test_pins``), both planes."""

    test_timeline_is_byte_identical = staticmethod(pin_loop("trace", ("notices", "clock"), timeline))
