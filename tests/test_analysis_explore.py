"""Tests for the bounded schedule explorer: the DeliveryChooser kernel
seam, the proving ground (every seeded mutation caught, every clean twin
passing), counterexample minimization and bit-for-bit replay, DPOR
pruning vs naive enumeration, and the CLI surface."""

import io
import json
import re

import pytest

from repro.analysis.explore import (
    ExploreError,
    ExploreScope,
    FaultAction,
    Schedule,
    explore_scope,
    load_schedule,
    minimize_counterexample,
    replay_schedule,
    save_counterexample,
    scenario,
    scenario_names,
)
from repro.analysis.mutations import MUTATIONS
from repro.sim.kernel import DeliveryChooser, Simulator

#: catch budgets observed empirically: the latest catch across the
#: proving ground is schedule #53 (stale_stability_vector); 400 leaves
#: ~7x slack without risking long test runs.
CATCH_BUDGET = 400

#: clean twins complete within ~30 schedules except split_brain_mint
#: and stale_stability_vector, whose clean spaces are larger; their
#: budgets below assert "no violation in the first N schedules" rather
#: than full enumeration (CI's explore-smoke job does the exhaustive
#: clean run on the smallest scope).
CLEAN_BUDGETS = {"split_brain_mint": 150, "stale_stability_vector": 150}


class _ListChooser(DeliveryChooser):
    """Release queued callbacks one per consultation, recording when."""

    __slots__ = ("pending", "consulted_at")

    def __init__(self, pending):
        self.pending = list(pending)
        self.consulted_at = []

    def release(self, sim):
        self.consulted_at.append(sim.now)
        if not self.pending:
            return False
        callback = self.pending.pop(0)
        sim.post_at(sim.now, callback)
        return True


class TestDeliveryChooserSeam:
    def test_chooser_drains_before_time_advances(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "timer")
        chooser = _ListChooser(
            [lambda: order.append("a"), lambda: order.append("b")]
        )
        sim.set_delivery_chooser(chooser)
        sim.run_window(2.0)
        # Both held deliveries run before the t=1.0 timer fires.
        assert order == ["a", "b", "timer"]

    def test_chooser_consulted_at_each_instant(self):
        sim = Simulator()
        chooser = _ListChooser([])
        sim.set_delivery_chooser(chooser)
        sim.schedule(0.5, lambda: None)
        sim.run_window(1.0)
        # Consulted when time would advance, at distinct instants.
        assert chooser.consulted_at
        assert chooser.consulted_at == sorted(chooser.consulted_at)

    def test_detached_chooser_restores_fast_path(self):
        sim = Simulator()
        order = []
        sim.set_delivery_chooser(_ListChooser([lambda: order.append("x")]))
        sim.set_delivery_chooser(None)
        sim.schedule(0.1, order.append, "timer")
        sim.run_window(1.0)
        assert order == ["timer"]


class TestScenarios:
    def test_every_mutation_has_a_scenario(self):
        names = scenario_names()
        for mutation in MUTATIONS:
            assert mutation in names
        assert "smallest" in names

    def test_mutation_scenarios_carry_their_mutation(self):
        for mutation in MUTATIONS:
            scope = scenario(mutation)
            assert scope.mutations == (mutation,)
            assert scope.without_mutations().mutations == ()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExploreError):
            scenario("no-such-scenario")

    def test_unknown_mutation_rejected_at_load(self):
        data = scenario("drop_stable_cascade").to_dict()
        data["mutations"] = ["drop_stable_cascde"]
        with pytest.raises(ExploreError, match="drop_stable_cascade"):
            ExploreScope.from_dict(data)

    def test_after_put_gate_round_trips_through_schedule_files(self, tmp_path):
        scope = scenario("split_brain_mint")
        gated = [act for act in scope.actions if act.after_put]
        assert gated, "split_brain_mint relies on an after_put-gated recover"
        restored = type(scope).from_dict(scope.to_dict())
        assert restored.actions == scope.actions
        assert isinstance(restored.actions[0], FaultAction)


class TestProvingGround:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_is_caught(self, mutation):
        report = explore_scope(scenario(mutation), budget=CATCH_BUDGET)
        assert not report.clean, f"{mutation} not caught in {CATCH_BUDGET} schedules"
        assert report.counterexample is not None
        assert report.counterexample.violations
        assert report.counterexample.trace
        assert mutation in report.scope.mutations

    def test_the_proxy_gate_is_caught_on_the_unbatched_plane_too(self):
        # the scope runs notices+batch; its first pair of reads races
        # the notices plane's shipping
        scope = scenario("proxy_gate_open").on_plane("notices")
        report = explore_scope(scope, budget=CATCH_BUDGET)
        assert not report.clean, f"not caught in {CATCH_BUDGET} schedules"
        assert dict(report.scope.overrides)["stability"] == "notices"

    def test_the_smallest_scope_holds_on_the_clock_plane(self):
        # The stability-convergence oracle asks the node's plane: the
        # clock plane answers from its horizon, and keeps no tracker that
        # a notices-plane question could find empty.
        report = explore_scope(scenario("smallest").on_plane("clock"), budget=300)
        assert report.clean, report.counterexample and report.counterexample.violations
        assert dict(report.scope.overrides)["stability"] == "clock"

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_clean_twin_passes(self, mutation):
        budget = CLEAN_BUDGETS.get(mutation, 2000)
        report = explore_scope(
            scenario(mutation).without_mutations(), budget=budget
        )
        assert report.clean, (
            f"clean twin of {mutation} violated: "
            f"{report.counterexample and report.counterexample.violations}"
        )
        if mutation not in CLEAN_BUDGETS:
            assert report.complete, f"clean twin of {mutation} blew budget {budget}"


class TestCounterexampleReplay:
    @pytest.fixture(scope="class")
    def caught(self):
        # drop_stable_cascade catches on the canonical schedule — the
        # cheapest full save/replay round-trip in the proving ground.
        return explore_scope(scenario("drop_stable_cascade"), budget=CATCH_BUDGET)

    def test_saved_schedule_retriggers_bit_for_bit(self, caught, tmp_path):
        path = str(tmp_path / "ce.json")
        saved = save_counterexample(path, caught)
        loaded = load_schedule(path)
        assert loaded.trace == saved.trace
        assert loaded.signature == saved.signature
        result = replay_schedule(loaded, strict=True)
        assert result.reproduced
        assert result.signature == caught.counterexample.signature
        assert result.violations == loaded.violations

    def test_replay_on_fixed_tree_passes(self, caught, tmp_path):
        path = str(tmp_path / "ce.json")
        saved = save_counterexample(path, caught)
        result = replay_schedule(saved, on_clean_tree=True)
        assert not result.reproduced
        assert not result.violations

    def test_minimization_never_grows_and_preserves_signature(self, caught):
        minimal = minimize_counterexample(caught.scope, caught.counterexample)
        assert len(minimal.trace) <= len(caught.counterexample.trace)
        assert minimal.signature == caught.counterexample.signature
        result = replay_schedule(minimal, strict=True)
        assert result.reproduced

    def test_schedule_file_is_seed_independent_json(self, caught, tmp_path):
        path = str(tmp_path / "ce.json")
        save_counterexample(path, caught)
        data = json.loads(open(path).read())
        assert data["scope"]["name"] == "drop_stable_cascade"
        assert data["trace"]
        assert "seed" not in data  # replays from explicit choices, not a seed


class TestDPOR:
    def test_dpor_prunes_at_least_5x_vs_naive(self):
        scope = scenario("drop_stable_cascade").without_mutations()
        dpor = explore_scope(scope, budget=20000, mode="dpor")
        naive = explore_scope(scope, budget=20000, mode="naive")
        assert dpor.complete and naive.complete
        assert dpor.clean and naive.clean
        ratio = naive.schedules / dpor.schedules
        assert ratio >= 5.0, f"pruning ratio {ratio:.1f}x below the 5x floor"

    def test_dpor_and_naive_agree_on_the_verdict(self):
        scope = scenario("drop_stable_cascade")
        dpor = explore_scope(scope, budget=CATCH_BUDGET, mode="dpor")
        naive = explore_scope(scope, budget=CATCH_BUDGET, mode="naive")
        assert not dpor.clean and not naive.clean
        assert (
            dpor.counterexample.signature == naive.counterexample.signature
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExploreError):
            explore_scope(scenario("smallest"), mode="bogus")


class TestCliExplore:
    def _run(self, argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_list_scenarios(self):
        code, text = self._run(["explore", "--list"])
        assert code == 0
        for mutation in MUTATIONS:
            assert mutation in text

    def test_expect_violation_catches_and_saves(self, tmp_path):
        path = str(tmp_path / "bug.json")
        code, text = self._run(
            [
                "explore", "--scope", "drop_stable_cascade",
                "--expect-violation", "--save", path,
                "--budget", str(CATCH_BUDGET),
            ]
        )
        assert code == 0
        assert "VIOLATION" in text
        assert "saved" in text

        replay_code, replay_text = self._run(["explore", "--replay", path])
        assert replay_code == 0
        assert "reproduced bit-for-bit" in replay_text

        clean_code, clean_text = self._run(
            ["explore", "--replay", path, "--clean-tree"]
        )
        assert clean_code == 0
        assert "bug is fixed" in clean_text

    @pytest.mark.parametrize("clean_tree", [False, True], ids=["strict", "clean-tree"])
    def test_replay_of_an_unknown_mutation_is_a_structural_failure(self, tmp_path, clean_tree):
        path = tmp_path / "bug.json"
        self._run(
            [
                "explore", "--scope", "drop_stable_cascade",
                "--expect-violation", "--save", str(path),
                "--budget", str(CATCH_BUDGET),
            ]
        )
        data = json.loads(path.read_text())
        data["scope"]["mutations"] = ["drop_stable_cascde"]
        path.write_text(json.dumps(data))
        argv = ["explore", "--replay", str(path)] + (["--clean-tree"] if clean_tree else [])
        code, text = self._run(argv)
        assert code == 2
        assert "drop_stable_cascde" in text and "drop_stable_cascade" in text
        assert "bug is fixed" not in text

    def test_clean_run_exits_zero(self):
        code, text = self._run(
            ["explore", "--scope", "drop_stable_cascade", "--clean"]
        )
        assert code == 0
        assert "no violation found" in text

    def test_expect_violation_fails_on_clean_tree(self):
        code, _ = self._run(
            [
                "explore", "--scope", "drop_stable_cascade", "--clean",
                "--expect-violation",
            ]
        )
        assert code == 1

    def test_stability_runs_the_scenario_on_another_plane(self, tmp_path):
        path = tmp_path / "gate.json"
        code, text = self._run(
            [
                "explore", "--scope", "proxy_gate_open", "--stability", "notices",
                "--expect-violation", "--save", str(path), "--budget", str(CATCH_BUDGET),
            ]
        )
        assert code == 0 and "VIOLATION" in text
        saved = json.loads(path.read_text())["scope"]
        assert dict(saved["overrides"])["stability"] == "notices"
        assert self._run(["explore", "--replay", str(path)])[0] == 0

    def test_compare_naive_reports_ratio(self):
        code, text = self._run(
            [
                "explore", "--scope", "drop_stable_cascade", "--clean",
                "--compare-naive",
            ]
        )
        assert code == 0
        assert "pruning ratio" in text

    def test_reports_schedules_per_second(self):
        # a host measurement: printed and in the JSON report, never judged
        argv = ["explore", "--scope", "smallest", "--budget", "5"]
        code, text = self._run(argv)
        assert code == 0
        assert re.search(r"elapsed=\d+\.\ds rate=\d+\.\d/s", text)
        code, rendered = self._run(argv + ["--format", "json"])
        payload = json.loads(rendered)
        assert code == 0 and payload["schedules"] > 0
        assert payload["schedules_per_s"] == pytest.approx(payload["schedules"] / payload["elapsed_s"])
