"""The per-metric verdicts of tools/bench_pairs.py on synthetic parent and change runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
PARENT = [40.0, 39.5, 40.5, 39.0, 41.0, 40.2, 39.8, 40.1, 39.9, 40.3]  # median 40.05, q1 39.825, q3 40.275


def _compare(spec, change, parent=PARENT):
    return bench_pairs.compare(spec, parent, change)


def test_a_gain_in_every_pair_beyond_the_parents_spread_is_shown():
    result = _compare(HIGHER, [p + 2.0 for p in PARENT])
    assert result["change_wins_pairs"] == "10 of 10"
    assert result["parent_iqr"] == pytest.approx(0.45)
    assert result["gain_shown"] is True
    assert result["worse_beyond_bound"] is False


def test_nine_of_ten_pairs_is_enough_and_eight_is_not():
    nine = [p + 2.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    eight = [p + 2.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    assert _compare(HIGHER, nine)["gain_shown"] is True
    assert _compare(HIGHER, eight)["gain_shown"] is False


def test_ties_win_no_pair():
    change = list(PARENT[:1]) + [p + 2.0 for p in PARENT[1:]]
    result = _compare(HIGHER, change)
    assert result["change_wins_pairs"] == "9 of 10"
    assert result["gain_shown"] is True
    assert _compare(HIGHER, list(PARENT))["change_wins_pairs"] == "0 of 10"


def test_winning_every_pair_by_less_than_the_parents_spread_shows_no_gain():
    result = _compare(HIGHER, [p + 0.1 for p in PARENT])
    assert result["change_wins_pairs"] == "10 of 10"
    assert result["gain_shown"] is False


def test_a_lower_is_better_metric_counts_falls_as_wins():
    parent = [0.20, 0.21, 0.19, 0.20, 0.22, 0.20, 0.18, 0.21, 0.20, 0.19]
    faster = _compare(LOWER, [p - 0.05 for p in parent], parent)
    assert faster["change_wins_pairs"] == "10 of 10" and faster["gain_shown"] is True
    slower = _compare(LOWER, [p + 0.04 for p in parent], parent)
    assert slower["change_wins_pairs"] == "0 of 10" and slower["gain_shown"] is False
    assert slower["worse_beyond_bound"] is False  # 0.24 s against 0.20 s: 20% worse, within the 25% bound
    assert _compare(LOWER, [p + 0.06 for p in parent], parent)["worse_beyond_bound"] is True


@pytest.mark.parametrize("fraction, beyond", [(0.19, False), (0.21, True)])
def test_worse_beyond_bound_is_a_fraction_of_the_parents_median(fraction, beyond):
    median = 40.05
    change = [p - fraction * median for p in PARENT]
    result = _compare(HIGHER, change)
    assert result["worse_beyond_bound"] is beyond
    assert result["gain_shown"] is False


def test_a_parent_median_of_zero_makes_any_worsening_beyond_the_bound():
    zeros = [0.0] * 4
    assert _compare(LOWER, [0.0, 0.0, 0.0, 0.0], zeros)["worse_beyond_bound"] is False
    assert _compare(LOWER, [0.0, 0.1, 0.1, 0.1], zeros)["worse_beyond_bound"] is True
    assert _compare(LOWER, [0.0, 0.1, 0.1, 0.1], zeros)["change_over_parent"] is None
