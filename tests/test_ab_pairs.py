import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

SPECS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def test_summary_of_canned_pairs():
    parent_setup = [0.80, 0.90, 0.70, 1.00, 0.85]
    change_setup = [0.40, 0.45, 0.35, 1.10, 0.40]  # pair 4 lost
    parent_rate = [100.0, 110.0, 90.0, 100.0, 105.0]
    change_rate = [100.0, 120.0, 95.0, 99.0, 106.0]  # pair 1 tied, pair 4 lost
    pairs = [({"setup_s": ps, "throughput_per_s": pr}, {"setup_s": cs, "throughput_per_s": cr})
             for ps, cs, pr, cr in zip(parent_setup, change_setup, parent_rate, change_rate)]
    setup, rate = ab_pairs.summarize(SPECS, pairs)

    assert setup["parent"] == pytest.approx((0.85, 0.80, 0.90))
    assert setup["change"] == pytest.approx((0.40, 0.40, 0.45))
    assert setup["ratio"] == pytest.approx(0.40 / 0.85)
    assert (setup["wins"], setup["pairs"]) == (4, 5)
    assert setup["beyond_spread"]  # 0.45 s lower against a 0.10 s spread

    assert rate["parent"] == pytest.approx((100.0, 100.0, 105.0))
    assert rate["change"] == pytest.approx((100.0, 99.0, 106.0))
    assert rate["wins"] == 3
    assert not rate["beyond_spread"]

    text = ab_pairs.render([setup, rate])
    assert "0.85 [0.8, 0.9]" in text and "0.4 [0.4, 0.45]" in text
    assert "4/5" in text and "3/5" in text
    assert [line.split()[-1] for line in text.splitlines()[1:]] == ["yes", "no"]


def test_one_pair_is_its_own_quartiles():
    assert ab_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_runs_that_are_not_correct_or_fail_operations_are_problems():
    assert ab_pairs.problems_of("change", 3, {"correct": True, "failed": 0}) == []
    assert ab_pairs.problems_of("parent", 2, {"correct": False, "failed": 0}) == [
        "pair 2 parent: not correct"]
    assert ab_pairs.problems_of("change", 1, {"correct": True, "failed": 2}) == [
        "pair 1 change: 2 failed operations"]
