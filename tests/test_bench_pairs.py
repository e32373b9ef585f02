"""The claim and bound rules of tools/bench_pairs.py, on made-up runs."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "queries_per_s", "better": "higher", "bound": 0.25}
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_wins_and_a_gap_past_the_base_spread_make_a_claim():
    tree = [v * 0.85 for v in BASE[:9]] + [BASE[9] * 1.1]
    s = bench_pairs.summary(LOWER, BASE, tree)
    assert (s["wins"], s["claim"], s["regression"]) == (9, True, False)


def test_eight_wins_make_no_claim():
    tree = [v * 0.85 for v in BASE[:8]] + [v * 1.1 for v in BASE[8:]]
    assert bench_pairs.summary(LOWER, BASE, tree)["claim"] is False


def test_a_gap_inside_the_base_spread_makes_no_claim():
    tree = [v - 0.005 for v in BASE]
    s = bench_pairs.summary(LOWER, BASE, tree)
    assert (s["wins"], s["claim"]) == (10, False)


def test_ties_count_for_neither_side():
    assert bench_pairs.summary(HIGHER, BASE, list(BASE))["wins"] == 0


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    s = bench_pairs.summary(HIGHER, BASE, [v * 0.7 for v in BASE])
    assert (s["wins"], s["claim"], s["regression"]) == (0, False, True)
    assert bench_pairs.summary(HIGHER, BASE, [v * 0.8 for v in BASE])["regression"] is False
