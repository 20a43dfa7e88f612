"""Tests for the chain-invariant monitor: a clean E1-style run, and one
deliberately broken run per invariant (prefix, stability grounding,
stability monotonicity via grounding, causal cut)."""

import pytest

from repro.analysis import ChainInvariantMonitor, capture_run
from repro.baselines.registry import build_store
from repro.core.messages import DepEntry, ReadReply
from repro.core.stability import StabilityTracker
from repro.storage.version import VersionVector
from repro.workload import WorkloadRunner, workload

FAST = dict(clients=2, duration=0.3, warmup=0.1, records=10, servers_per_site=3)


def run_monitored(store, *, duration=0.3):
    spec = workload("B", record_count=10)
    WorkloadRunner(
        store, spec, n_clients=2, duration=duration, warmup=0.1,
        record_history=False,
    ).run()


class TestCleanRuns:
    def test_e1_style_chainreaction_run_holds_all_invariants(self):
        capture = capture_run("chainreaction", seed=42, check_invariants=True, **FAST)
        report = capture.invariant_report
        assert report.clean, report.format()
        assert report.applies_checked > 0
        assert report.stability_checks > 0
        assert report.gets_checked > 0
        assert report.keys_checked > 0
        assert "all hold" in report.format()

    def test_plain_chain_replication_run_holds_prefix(self):
        capture = capture_run("chain", seed=42, check_invariants=True, **FAST)
        report = capture.invariant_report
        assert report.clean, report.format()
        assert report.applies_checked > 0

    def test_monitor_attaches_once(self):
        store = build_store("chainreaction", sites=("dc0",), servers_per_site=3,
                            chain_length=3, seed=42)
        monitor = ChainInvariantMonitor(store).attach()
        with pytest.raises(RuntimeError):
            monitor.attach()


class TestBrokenRuns:
    def _monitored_store(self, seed=42):
        store = build_store("chainreaction", sites=("dc0",), servers_per_site=3,
                            chain_length=3, seed=seed)
        monitor = ChainInvariantMonitor(store).attach()
        return store, monitor

    def _node_named(self, store, name):
        for node in store.nodes["dc0"]:
            if node.name == name:
                return node
        raise AssertionError(f"no node named {name}")

    def test_out_of_band_apply_breaks_prefix_property(self):
        store, monitor = self._monitored_store()
        run_monitored(store)
        # Forge a write directly onto a non-head replica, bypassing the
        # chain: its applied sequence is no longer a prefix of the head's.
        view = store.managers["dc0"].view
        key = next(iter(monitor._applied[("dc0", view.chain_for("user0")[0])]))
        rogue = self._node_named(store, view.chain_for(key)[-1])
        version = rogue.store.version_of(key).increment("rogue")
        rogue.store.apply(key, "forged", version, store.sim.now)
        report = monitor.report()
        assert not report.clean
        assert any(v.kind == "chain-prefix" and v.key == key
                   for v in report.violations)

    def test_unheld_version_breaks_stability_grounding(self):
        store, monitor = self._monitored_store()
        run_monitored(store)
        view = store.managers["dc0"].view
        key = next(iter(monitor._applied[("dc0", view.chain_for("user0")[0])]))
        node = self._node_named(store, view.chain_for(key)[0])
        # Declare stable a version strictly above anything the node holds.
        ghost = node.store.version_of(key).increment("ghost")
        node.plane.stability.record(key, ghost)
        report = monitor.report()
        assert any(v.kind == "stability-grounding" and v.key == key
                   for v in report.violations)

    def test_marking_converged_what_is_not_held_breaks_grounding(self):
        store, monitor = self._monitored_store()
        store.preload({f"user{i}": "v" for i in range(10)})
        assert monitor.violations == [] and monitor.stability_checks == 0
        node = store.nodes["dc0"][0]
        # Vouch for a version above the one the node was just handed:
        # the floor would then answer for writes that never landed.
        node.plane.mark_converged(VersionVector({"preload": 2}), [], lambda: [])
        held = list(node.store.keys())
        assert held and [v.key for v in monitor.violations] == held
        assert {v.kind for v in monitor.violations} == {"stability-grounding"}

    def test_answer_sinking_from_floor_to_entry_breaks_monotonicity(self):
        store, monitor = self._monitored_store()
        store.preload({f"user{i}": "v" for i in range(10)})
        node = store.nodes["dc0"][0]
        key = next(iter(node.store.keys()))
        preload = node.store.version_of(key)
        assert node.plane.stability.stable_version(key) == preload  # off the floor
        # An entry created *below* what the floor answered: every single
        # ``record`` still only grows it, yet the key's answer has sunk.
        node.plane.stability.adopt(key, VersionVector())
        node.plane.stability.record(key, preload)
        assert [(v.kind, v.key) for v in monitor.violations] == [
            ("stability-monotonicity", key)
        ]
        # Checked once, at the key's first notice after the marking.
        node.plane.stability.record(key, preload)
        assert len(monitor.violations) == 1

    def _sealed_key(self):
        store = build_store("chainreaction", sites=("dc0", "dc1"), servers_per_site=3,
                            chain_length=3, seed=42,
                            overrides={"stability": "notices+batch"})
        monitor = ChainInvariantMonitor(store).attach()
        session = store.session("dc0", "writer")
        session.put("k", "v1")
        store.run(until=store.sim.now + 1.0)
        sealed = [n for n in store.servers() if "k" in n.plane._sealed]
        assert len(sealed) == 6 and monitor.violations == []
        return store, monitor, session, sealed

    def test_sealing_what_is_not_held_breaks_grounding(self):
        store, monitor, _, sealed = self._sealed_key()
        node = sealed[0]
        node.plane.seal("k", node.store.version_of("k").increment("ghost"))
        assert [(v.kind, v.key) for v in monitor.violations] == [
            ("stability-grounding", "k")
        ]

    def test_unsealing_without_adopting_breaks_monotonicity(self, monkeypatch):
        store, monitor, session, sealed = self._sealed_key()
        # The unseal pops the sealed version but no tracker adopts it:
        # the key answers ZERO until the next write's notice lands.
        monkeypatch.setattr(StabilityTracker, "adopt", lambda self, key, version: None)
        session.put("k", "v2")
        store.run(until=store.sim.now + 1.0)
        assert monitor.violations
        assert {(v.kind, v.key) for v in monitor.violations} == {
            ("stability-monotonicity", "k")
        }

    def test_causal_cut_violation_detected(self):
        store, monitor = self._monitored_store()
        session = store.session("dc0", "probe")
        # The session has observed version {w:2}; a later get serving the
        # older {w:1} hands the application a state outside its causal past.
        observed = VersionVector({"w": 2})
        session._deps["k"] = DepEntry(version=observed, index=0)
        stale = VersionVector({"w": 1})
        session._note_observed("k", ReadReply(value="old", version=stale))
        assert any(v.kind == "causal-cut" and v.key == "k"
                   for v in monitor.violations)

    def test_dominating_get_is_not_a_violation(self):
        store, monitor = self._monitored_store()
        session = store.session("dc0", "probe")
        session._deps["k"] = DepEntry(version=VersionVector({"w": 1}), index=0)
        session._note_observed(
            "k", ReadReply(value="new", version=VersionVector({"w": 2}))
        )
        assert monitor.violations == []
        assert monitor.gets_checked == 1


class TestReportFormatting:
    def test_violation_format(self):
        from repro.analysis import InvariantViolation

        violation = InvariantViolation(
            kind="chain-prefix", node="dc0:s2", key="user3", detail="gap"
        )
        assert violation.format() == "[chain-prefix] node=dc0:s2 key=user3: gap"

    def test_report_format_lists_violations(self):
        from repro.analysis import InvariantReport, InvariantViolation

        report = InvariantReport(
            violations=[
                InvariantViolation(kind="causal-cut", node="s", key="k", detail="d")
            ],
            applies_checked=1,
            stability_checks=2,
            gets_checked=3,
            keys_checked=4,
        )
        assert not report.clean
        assert "1 VIOLATION(S)" in report.format()
        assert "[causal-cut]" in report.format()
