"""The verdict rule of scripts/ab_pairs.py (benchmarks/suite/README.md, step 4)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

HIGHER = {"name": "ops_per_wall_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}


def test_gain_needs_nine_wins_in_ten_and_a_shift_beyond_the_base_iqr():
    base = [100.0 + i for i in range(10)]  # IQR 5.5
    assert ab_pairs.verdict(HIGHER, base, [b + 20 for b in base]) == (10, 0, "gain")
    # wins every pair, but by less than the base's own spread
    assert ab_pairs.verdict(HIGHER, base, [b + 1 for b in base]) == (10, 0, "within bound")
    # a large median shift with only 8 wins is not a gain either
    change = [b + 20 for b in base[:8]] + [b - 1 for b in base[8:]]
    assert ab_pairs.verdict(HIGHER, base, change)[::2] == (8, "within bound")


def test_fewer_than_ten_pairs_never_claim_a_gain():
    base = [100.0, 101.0, 102.0, 103.0]
    assert ab_pairs.verdict(HIGHER, base, [b + 50 for b in base]) == (4, 0, "within bound")


def test_lower_is_better_metrics_flip_the_comparison():
    base = [10.0 + 0.1 * i for i in range(10)]
    assert ab_pairs.verdict(LOWER, base, [b - 3 for b in base]) == (10, 0, "gain")
    assert ab_pairs.verdict(LOWER, base, [b * 1.5 for b in base]) == (0, 0, "WORSE THAN BOUND")


def test_ties_count_for_neither_side_and_wide_spread_is_unresolved():
    base = [5.0] * 10
    assert ab_pairs.verdict(HIGHER, base, list(base)) == (0, 10, "within bound")
    noisy = [100.0, 160.0] * 5  # IQR/median far beyond the 25 % bound
    assert ab_pairs.verdict(HIGHER, noisy, [v + 1 for v in noisy])[2] == "unresolved"


def test_quartiles_of_a_single_pair():
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0])[1] == pytest.approx(2.5)


def test_trace_prints_each_layers_self_time_and_calls_for_both_sides(tmp_path, monkeypatch, capsys):
    # The harness itself is stubbed: base and change answer canned
    # metrics, a traced pass (--trace 1) the per-layer ones.
    spec = ab_pairs.json.loads((ab_pairs.ROOT / "BENCHMARK.json").read_text())
    layers = [m["name"][: -len(".self_s")] for m in spec["per_layer"] if m["name"].endswith(".self_s")]
    calls = []

    def canned(tree, workload, seed, extra, trace=False):
        change = tree == ab_pairs.ROOT
        calls.append(("change" if change else "base", seed, trace))
        if not trace:
            return {m["name"]: 2.0 if change else 1.0 for m in spec["end_to_end"]}, "d1ge57"
        metrics = {"trace.unattributed_share": 0.11 if change else 0.03}
        for i, layer in enumerate(layers):
            metrics[f"{layer}.self_s"] = 0.25 * (i + 1) * (0.5 if change else 1.0)
            metrics[f"{layer}.calls"] = 1000 * (i + 1) - (300 if change and layer == "sim.process" else 0)
        return metrics, "d1ge57"

    monkeypatch.setattr(ab_pairs, "run_once", canned)
    out = tmp_path / "pairs.json"
    assert ab_pairs.main(["--base", str(tmp_path), "--workload", "ycsb-b-1dc", "--pairs", "2",
                          "--first-seed", "40", "--trace", "--out", str(out)]) == 0
    # two interleaved untraced pairs, then one traced pass per side at the first seed
    assert calls == [("base", 40, False), ("change", 40, False), ("change", 41, False),
                     ("base", 41, False), ("base", 40, True), ("change", 40, True)]
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ") and line.split()[0] in layers + ["trace.unattributed_share"]}
    assert list(rows) == layers + ["trace.unattributed_share"]  # BENCHMARK.json's order
    i = layers.index("sim.process")
    assert rows["sim.process"] == [f"{0.25 * (i + 1):.4f}", f"{0.125 * (i + 1):.4f}", f"{-0.125 * (i + 1):+.4f}",
                                   str(1000 * (i + 1)), str(1000 * (i + 1) - 300), "-300"]
    assert rows["net.actor"][-1] == "+0"
    assert rows["trace.unattributed_share"] == ["0.0300", "0.1100", "+0.0800"]
    saved = ab_pairs.json.loads(out.read_text())
    assert saved["traces"]["ycsb-b-1dc"]["change"]["trace.unattributed_share"] == 0.11


def test_without_trace_no_traced_pass_runs(tmp_path, monkeypatch, capsys):
    spec = ab_pairs.json.loads((ab_pairs.ROOT / "BENCHMARK.json").read_text())
    traced = []

    def canned(tree, workload, seed, extra, trace=False):
        traced.append(trace)
        return {m["name"]: 1.0 for m in spec["end_to_end"]}, "d1ge57"

    monkeypatch.setattr(ab_pairs, "run_once", canned)
    assert ab_pairs.main(["--base", str(tmp_path), "--workload", "ycsb-b-1dc", "--pairs", "1"]) == 0
    assert traced == [False, False]
    assert "traced pass" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# --campaigns: behaviour A/B, every runner stubbed
# ----------------------------------------------------------------------
SHIPPED = {"crash-head": ["dc0"], "partition-sites": ["dc0", "dc1"]}


def _canned_campaigns(monkeypatch, differing=(), skipped=(), fewer_events=(), violating=()):
    """Both trees answer canned counts; rows in ``differing`` get another
    trace on the change side, rows in ``fewer_events`` fewer kernel
    events, rows in ``violating`` a causal violation, rows in ``skipped``
    a ConfigError on both."""
    runs = []

    def canned(tree, name, plane, sites, seed):
        row = f"{name}/{plane}/{sites}"
        side = "change" if tree == ab_pairs.ROOT else "base"
        runs.append((side, row, seed))
        if row in skipped:
            return {"skipped": "incompatible knobs"}
        change = side == "change"
        moved = change and row in differing
        return {"messages": 100 - moved, "bytes": 9000 - 43 * moved,
                "events": 250 - 60 * (change and row in fewer_events), "ops": 40,
                "sha256": ("c" if moved else "a") * 64,
                "causal": int(change and row in violating), "invariant": 0}

    monkeypatch.setattr(ab_pairs, "run_campaign_once", canned)
    monkeypatch.setattr(ab_pairs, "shipped_campaigns", lambda tree: dict(SHIPPED))
    return runs


def _verdicts(text):
    return {line.split()[0]: line.split()[-1] for line in text.splitlines()
            if line.startswith("  ") and "/" in line.split()[0] and line.split()[0] != "row"}


def test_campaigns_cover_every_plane_and_add_two_dcs_to_single_site_campaigns(tmp_path, monkeypatch, capsys):
    runs = _canned_campaigns(monkeypatch)
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--seed", "7"]) == 0
    rows = [row for side, row, _ in runs if side == "base"]
    assert rows == [f"crash-head/{plane}/{sites}" for plane in ab_pairs.STABILITY_PLANES for sites in ("shipped", "2dc")] \
        + [f"partition-sites/{plane}/shipped" for plane in ab_pairs.STABILITY_PLANES]
    # each row: base then change, same seed, and no benchmark pair ran
    assert runs[:2] == [("base", rows[0], 7), ("change", rows[0], 7)] and len(runs) == 2 * len(rows)
    verdicts = _verdicts(capsys.readouterr().out)
    assert list(verdicts) == rows and set(verdicts.values()) == {"equal"}


def test_a_different_row_fails_unless_it_is_expected(tmp_path, monkeypatch, capsys):
    corner = "crash-head/notices/2dc"
    _canned_campaigns(monkeypatch, differing={corner})
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert _verdicts(out)[corner] == "DIFFERENT" and "100/99" in out and "aaaaaaaa/cccccccc" in out
    assert f"not named by --expect-different: ['{corner}']" in out
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--expect-different", corner]) == 0
    assert "not named" not in capsys.readouterr().out


def test_events_are_printed_but_not_judged_and_violations_are(tmp_path, monkeypatch, capsys):
    cheaper, violating = "crash-head/notices/shipped", "crash-head/clock/2dc"
    _canned_campaigns(monkeypatch, fewer_events={cheaper}, violating={violating})
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--campaign", "crash-head"]) == 1
    out = capsys.readouterr().out
    verdicts = _verdicts(out)
    assert "250/190" in out and verdicts[cheaper] == "equal"
    assert verdicts[violating] == "DIFFERENT"
    assert f"not named by --expect-different: ['{violating}']" in out


def test_an_expected_row_that_came_out_equal_fails_too(tmp_path, monkeypatch, capsys):
    _canned_campaigns(monkeypatch)
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--campaign", "crash-head",
                          "--stability", "clock", "--expect-different", "crash-head/clock/2dc"]) == 1
    assert "but equal (or not run): ['crash-head/clock/2dc']" in capsys.readouterr().out


def test_filters_pick_campaigns_and_planes_and_reject_unknown_names(tmp_path, monkeypatch, capsys):
    runs = _canned_campaigns(monkeypatch)
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--campaign", "partition-sites",
                          "--stability", "notices+batch"]) == 0
    assert [row for _, row, _ in runs] == ["partition-sites/notices+batch/shipped"] * 2
    with pytest.raises(SystemExit, match="unknown campaign"):
        ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--campaign", "meteor"])


def test_a_configuration_both_trees_reject_is_an_equal_row(tmp_path, monkeypatch, capsys):
    _canned_campaigns(monkeypatch, skipped={"crash-head/clock/shipped"})
    assert ab_pairs.main(["--campaigns", "--base", str(tmp_path), "--campaign", "crash-head",
                          "--stability", "clock"]) == 0
    out = capsys.readouterr().out
    assert "skipped: incompatible knobs" in out and _verdicts(out)["crash-head/clock/shipped"] == "equal"


def test_campaign_runner_runs_in_the_trees_own_interpreter():
    # The real runner, HEAD against itself, on the cheapest real row:
    # the subprocess imports this tree's src and answers every column.
    assert "crash-head" in ab_pairs.shipped_campaigns(ab_pairs.ROOT)
    first = ab_pairs.run_campaign_once(ab_pairs.ROOT, "slow-link", "notices", "shipped", 42)
    again = ab_pairs.run_campaign_once(ab_pairs.ROOT, "slow-link", "notices", "shipped", 42)
    assert first == again and first["messages"] > 0 and len(first["sha256"]) == 64
    assert (first["causal"], first["invariant"]) == (0, 0)


#: a tree reduced to what the campaign runner imports; its ``run_campaign``
#: answers with the config overrides it was handed (as a ConfigError, which
#: the runner reports as ``skipped``)
_STUB_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/core/__init__.py": "",
    "src/repro/errors.py": "class ConfigError(Exception):\n    pass\n",
    "src/repro/faults/__init__.py": "",
    "src/repro/faults/campaign.py": (
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Spec:\n"
        "    overrides: dict\n"
        "    sites: tuple = ('dc0',)\n"
        "CAMPAIGNS = {'stub': Spec({'durable_storage': True})}\n"
    ),
    "src/repro/faults/engine.py": (
        "import json\n"
        "from repro.errors import ConfigError\n"
        "def run_campaign(spec, seed, capture_trace):\n"
        "    raise ConfigError(json.dumps(spec.overrides, sort_keys=True))\n"
    ),
}
_LEGACY_DICT = {"protocol_batching": True, "metadata_gc": True, "batch_flush_interval": 0.025}


@pytest.mark.parametrize(
    "config_source,batched",
    [
        ("STABILITY_PLANES = ('notices', 'notices+batch', 'clock')\n", {"stability": "notices+batch"}),
        (f"BATCHED_OVERRIDES = {_LEGACY_DICT!r}\n", _LEGACY_DICT),
    ],
    ids=["a-plane-name-is-the-override", "a-base-that-still-has-the-dict"],
)
def test_campaign_runner_spells_the_plane_the_way_its_tree_does(tmp_path, config_source, batched):
    for name, source in {**_STUB_TREE, "src/repro/core/config.py": config_source}.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)

    def overrides(plane):
        return ab_pairs.json.loads(ab_pairs.run_campaign_once(tmp_path, "stub", plane, "shipped", 42)["skipped"])

    assert overrides("notices+batch") == {"durable_storage": True, **batched}
    assert overrides("clock") == {"durable_storage": True, "stability": "clock"}


# ----------------------------------------------------------------------
# --pins: the pin table's runs A/B, the runner stubbed
# ----------------------------------------------------------------------
PINS = {
    "golden/cops": {"bytes": 666036, "events": 10884, "messages": 7045},
    "geo_ops/no_dependencies": {"bytes": 6320, "tap_sha256": "1600afcbffc52fb9", "visibility": [0.0005]},
}


def _canned_pins(monkeypatch, tmp_path, base=PINS, tree=PINS, table=PINS):
    pinned = tmp_path / "pins.json"
    pinned.write_text(ab_pairs.pins_json(table))
    monkeypatch.setattr(ab_pairs, "PINS_TABLE", pinned)
    monkeypatch.setattr(ab_pairs, "record_pins", lambda t: ab_pairs.json.loads(ab_pairs.json.dumps(
        tree if t == ab_pairs.ROOT else base)))
    return pinned


def _perturbed(rows, script, field, value):
    return {**rows, script: {**rows[script], field: value}}


def test_one_moved_field_is_one_diff_line_and_fails_unless_its_script_is_named(tmp_path, monkeypatch, capsys):
    base = _perturbed(PINS, "golden/cops", "bytes", 763654)
    _canned_pins(monkeypatch, tmp_path, base=base)
    assert ab_pairs.main(["--pins", "--base", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "->" in line] == ["golden/cops bytes: 763654 -> 666036"]
    assert "not named by --expect-different: ['golden/cops']" in out
    assert ab_pairs.main(["--pins", "--base", str(tmp_path), "--expect-different", "golden/cops"]) == 0
    assert "not named" not in capsys.readouterr().out


def test_equal_runs_pass_and_a_named_script_that_did_not_move_fails(tmp_path, monkeypatch, capsys):
    _canned_pins(monkeypatch, tmp_path)
    assert ab_pairs.main(["--pins", "--base", str(tmp_path)]) == 0
    assert "0 field(s) of 0 of 2 script(s) differ" in capsys.readouterr().out
    assert ab_pairs.main(["--pins", "--base", str(tmp_path), "--expect-different", "golden/cops"]) == 1


def test_a_table_this_tree_does_not_reproduce_fails_and_write_rewrites_it(tmp_path, monkeypatch, capsys):
    tree = _perturbed(PINS, "geo_ops/no_dependencies", "visibility", [0.0007])
    pinned = _canned_pins(monkeypatch, tmp_path, base=tree, tree=tree)
    assert ab_pairs.main(["--pins", "--base", str(tmp_path)]) == 1
    assert "pins.json: geo_ops/no_dependencies visibility: [0.0005] -> [0.0007]" in capsys.readouterr().out
    assert ab_pairs.main(["--pins", "--base", str(tmp_path), "--write"]) == 0
    assert ab_pairs.json.loads(pinned.read_text()) == tree
    assert ab_pairs.main(["--pins", "--base", str(tmp_path)]) == 0


def test_write_leaves_the_table_alone_while_an_unnamed_script_moved(tmp_path, monkeypatch, capsys):
    tree = _perturbed(PINS, "golden/cops", "events", 1)
    pinned = _canned_pins(monkeypatch, tmp_path, tree=tree)
    assert ab_pairs.main(["--pins", "--base", str(tmp_path), "--write"]) == 1
    assert ab_pairs.json.loads(pinned.read_text()) == PINS
    assert ab_pairs.main(["--pins", "--base", str(tmp_path), "--write", "--expect-different", "golden/cops"]) == 0
    assert ab_pairs.json.loads(pinned.read_text()) == tree
