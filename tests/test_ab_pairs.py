import importlib.util
import json
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


def test_a_median_worse_than_its_bound_is_flagged():
    # setup_s: 1.30 s against 1.00 s is 30% worse, past its 0.25 bound;
    # throughput: 80 /s against 100 /s is 20% worse, inside its bound.
    pairs = [({"setup_s": 1.00, "throughput_per_s": 100.0},
              {"setup_s": 1.30, "throughput_per_s": 80.0})] * 3
    setup, rate = ab_pairs.summarize(SPECS, pairs)
    assert setup["beyond_bound"] and not rate["beyond_bound"]
    assert setup["beyond_spread"] is False and rate["beyond_spread"] is False
    better = ab_pairs.summarize(SPECS, [(c, p) for p, c in pairs])
    assert [row["beyond_bound"] for row in better] == [False, False]
    text = ab_pairs.render([setup, rate])
    assert [line.split()[-2:] for line in text.splitlines()[1:]] == [
        ["yes", "no"], ["no", "no"]]


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    # setup_s: the parent's own runs span Q1 0.80 to Q3 1.40 s around a 1.00 s
    # median, a spread of 0.60 s past the 0.25 s bound, so the change's 1.30 s
    # is worse than the bound but unresolved; throughput's parent quartiles
    # 98-102 /s sit inside its bound of 25 /s.
    parent = [(0.60, 96.0), (0.80, 98.0), (1.00, 100.0), (1.40, 102.0), (1.60, 104.0)]
    pairs = [({"setup_s": s, "throughput_per_s": r},
              {"setup_s": 1.30, "throughput_per_s": 80.0}) for s, r in parent]
    setup, rate = ab_pairs.summarize(SPECS, pairs)
    assert setup["parent"] == pytest.approx((1.00, 0.80, 1.40))
    assert setup["unresolved"] and setup["beyond_bound"]
    assert not rate["unresolved"] and not rate["beyond_bound"]
    text = ab_pairs.render([setup, rate])
    assert [line.split()[-3:] for line in text.splitlines()[1:]] == [
        ["yes", "yes", "no"], ["no", "no", "no"]]
    record = ab_pairs.trend_record("serve-a", [{"seed": 1, "pairs": 5, "rows": [setup, rate]}],
                                   {}, None, 10, True)
    metrics = record["sets"][0]["metrics"]
    assert (metrics["setup_s"]["unresolved"], metrics["throughput_per_s"]["unresolved"]) \
        == (True, False)


CANNED = {  # (side, workload) -> (setup_s, throughput_per_s)
    ("parent", "serve-a"): (1.0, 100.0), ("change", "serve-a"): (0.5, 150.0),
    ("parent", "train-b"): (2.0, 10.0), ("change", "train-b"): (3.0, 10.0),
}


def _checkouts(tmp_path, change_name="change"):
    parent, change = tmp_path / "parent", tmp_path / change_name
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 10, "end_to_end": SPECS,
        "workloads": [{"name": "serve-a"}, {"name": "train-b"}]}))
    return parent, change


def test_all_runs_every_workload_in_each_pair(tmp_path, monkeypatch, capsys):
    parent, change = _checkouts(tmp_path)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        setup, rate = CANNED[checkout.name, workload]
        return {"correct": True, "failed": 0,
                "metrics": {"setup_s": {"value": setup},
                            "throughput_per_s": {"value": rate}}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main([str(parent), str(change), "--workload", "all",
                          "--pairs", "2", "--seed", "3"]) == 0
    assert calls == [("parent", "serve-a"), ("change", "serve-a"),
                     ("parent", "train-b"), ("change", "train-b"),
                     ("change", "serve-a"), ("parent", "serve-a"),
                     ("change", "train-b"), ("parent", "train-b")]
    out = capsys.readouterr().out
    summaries = out.split("pairs\n")
    assert "serve-a, seed 3, 2" in summaries[0] and "train-b, seed 3, 2" in summaries[1]
    # serve-a's change is better on both metrics; train-b's set-up is 50%
    # slower, past its bound
    serve_rows = summaries[1].splitlines()[1:3]
    train_rows = summaries[2].splitlines()[1:3]
    assert [row.split()[-2:] for row in serve_rows] == [["no", "yes"], ["no", "yes"]]
    assert [row.split()[-2:] for row in train_rows] == [["yes", "no"], ["no", "no"]]
    assert list(change.iterdir()) == []  # no --record, no trend file


def test_record_writes_one_trend_file_per_workload_at_the_change(tmp_path, monkeypatch):
    parent, change = _checkouts(tmp_path)

    def run_once(checkout, workload, seed, seconds):
        setup, rate = CANNED[checkout.name, workload]
        return {"correct": True, "failed": 0, "env": {"nproc": 2, "seed": seed},
                "metrics": {"setup_s": {"value": setup * seed},
                            "throughput_per_s": {"value": rate}}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs, "describe", lambda checkout: f"{checkout.name}-commit")
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    assert ab_pairs.main([str(parent), str(change), "--workload", "all",
                          "--pairs", "2", "--seed", "3", "4", "--record"]) == 0
    assert sorted(p.name for p in change.iterdir()) == [
        "BENCH_serve-a.json", "BENCH_train-b.json"]
    record = json.loads((change / "BENCH_train-b.json").read_text())
    assert record["workload"] == "train-b" and record["run_seconds"] == 10
    assert record["commits"] == {"parent": "parent-commit", "change": "change-commit"}
    assert record["malloc_mmap_threshold"] == "131072"
    assert record["paths_equal_length"] is True  # "parent" and "change"
    assert record["env"] == {"nproc": 2, "seed": 4}  # the last run's
    assert [(s["seed"], s["pairs"]) for s in record["sets"]] == [(3, 2), (4, 2)]
    setup = record["sets"][1]["metrics"]["setup_s"]
    assert setup == {"unit": "s", "better": "lower",
                     "parent": {"median": 8.0, "q1": 8.0, "q3": 8.0},
                     "change": {"median": 12.0, "q1": 12.0, "q3": 12.0},
                     "ratio": 1.5, "change_wins": 0, "unresolved": False}
    rate = record["sets"][0]["metrics"]["throughput_per_s"]
    assert (rate["parent"]["median"], rate["change"]["median"]) == (10.0, 10.0)


def test_checkouts_at_paths_of_unequal_length_are_flagged(tmp_path, monkeypatch, capsys):
    # peak_rss_mb moves with the checkout path's length: "parent" (6) against
    # "change-b" (8) draws a warning and is recorded in the trend file.
    parent, change = _checkouts(tmp_path, "change-b")

    def run_once(checkout, workload, seed, seconds):
        setup, rate = CANNED[checkout.name.replace("change-b", "change"), workload]
        return {"correct": True, "failed": 0,
                "metrics": {"setup_s": {"value": setup},
                            "throughput_per_s": {"value": rate}}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs, "describe", lambda checkout: None)
    assert ab_pairs.main([str(parent), str(change), "--workload", "serve-a",
                          "--pairs", "1", "--record"]) == 0
    err = capsys.readouterr().err.splitlines()
    length = len(str(parent.resolve()))
    assert err == [f"warning: PARENT's path is {length} characters and CHANGE's is "
                   f"{length + 2}; peak_rss_mb moves with path length, so compare it "
                   "only between checkouts at paths of equal length"] * 2
    record = json.loads((change / "BENCH_serve-a.json").read_text())
    assert record["paths_equal_length"] is False
    assert ab_pairs.path_length_warning(parent, tmp_path / "abcdef") is None
