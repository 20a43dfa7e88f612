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
