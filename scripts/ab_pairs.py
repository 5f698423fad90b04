"""Alternating parent/change benchmark pairs, summarised per end-to-end metric.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload serve-bigtable --pairs 10 --seed 1
    python3 scripts/ab_pairs.py PARENT CHANGE --workload all --pairs 6 --seed 1 2 --record

PARENT and CHANGE are two checkouts of this repository. Each pair runs
``perfbench/run.py`` once in each checkout, the parent first on odd pairs
and the change first on even ones, for the run length that the parent's
``BENCHMARK.json`` sets. ``--workload all`` runs every workload that file
lists, one after the other within each pair. Every run is printed as it
finishes. Then, per workload and for each end-to-end metric in
``BENCHMARK.json``, the summary gives each side's median [Q1, Q3], the
change/parent ratio of the medians, the pairs the change won under the
metric's ``better`` (ties count for neither side), whether the metric is
unresolved, whether the change's median is worse than the parent's by more
than the metric's ``bound`` (a fraction of the parent's median) and whether
the medians differ by more than the parent's quartile spread. A metric is
unresolved when the parent's own quartile spread is wider than the bound
times the parent's median: its runs spread too widely for a "worse > bound"
on it to show a regression, or its absence to show none. Several ``--seed``
values run one set of pairs each, one seed after the other. The script exits
1 when any run is not ``correct``, has failed operations or gives no result.

``--record`` then writes each workload's trend file, ``BENCH_<workload>.json``,
at CHANGE's root. It holds each seed's summary (both sides' median and
quartiles per end-to-end metric, whether it is unresolved, and the pair
count), the run length, both checkouts' commits as ``git describe --always
--dirty`` gives them, the ``MALLOC_MMAP_THRESHOLD_`` that every run inherited
(null when unset), whether the two checkouts' paths are of equal length, and
the ``env`` record of the workload's last run. A set of pairs replaces the
file whole: numbers from two sets on a shared host are not comparable.

``peak_rss_mb`` moves with the length of the checkout's path, by several MB
on ``train-bigvocab``, so the script warns when PARENT's and CHANGE's
resolved paths differ in length, at the start and again at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(specs: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per end-to-end metric from (parent, change) metric values."""
    rows = []
    for spec in specs:
        name = spec["name"]
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_med, p_q1, p_q3 = quartiles(parent)
        c_med, c_q1, c_q3 = quartiles(change)
        rows.append({
            "name": name, "unit": spec["unit"], "better": spec["better"],
            "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "ratio": c_med / p_med if p_med else float("nan"),
            "wins": wins, "pairs": len(pairs),
            "unresolved": p_q3 - p_q1 > spec["bound"] * abs(p_med),
            "beyond_bound": sign * (c_med - p_med) < -spec["bound"] * abs(p_med),
            "beyond_spread": sign * (c_med - p_med) > p_q3 - p_q1,
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<26}{'parent median [Q1, Q3]':>34}{'change median [Q1, Q3]':>34}"
             f"{'change/parent':>15}{'change wins':>13}  unresolved  worse > bound"
             "  gap > parent IQR"]
    for row in rows:
        sides = ["{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change")]
        lines.append(f"{row['name'] + ' (' + row['unit'] + ')':<26}{sides[0]:>34}"
                     f"{sides[1]:>34}{row['ratio']:>15.3f}"
                     f"{str(row['wins']) + '/' + str(row['pairs']):>13}  "
                     f"{'yes' if row['unresolved'] else 'no':<12}"
                     f"{'yes' if row['beyond_bound'] else 'no':<15}"
                     f"{'yes' if row['beyond_spread'] else 'no'}")
    return "\n".join(lines)


def trend_record(workload: str, sets: list[dict], commits: dict, env: dict | None,
                 run_seconds: float, paths_equal_length: bool) -> dict:
    """A ``BENCH_<workload>.json`` record of ``sets``, each a seed, its pair
    count and its ``summarize`` rows."""
    def sides(row):
        return {side: dict(zip(("median", "q1", "q3"), row[side]))
                for side in ("parent", "change")}

    return {
        "workload": workload, "run_seconds": run_seconds, "commits": commits,
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "paths_equal_length": paths_equal_length,
        "sets": [{"seed": s["seed"], "pairs": s["pairs"],
                  "metrics": {row["name"]: {"unit": row["unit"], "better": row["better"],
                                            **sides(row), "ratio": row["ratio"],
                                            "change_wins": row["wins"],
                                            "unresolved": row["unresolved"]}
                              for row in s["rows"]}}
                 for s in sets],
        "env": env,
    }


def path_length_warning(parent: Path, change: Path) -> str | None:
    """A warning when the checkouts' resolved paths differ in length."""
    lengths = [len(str(checkout.resolve())) for checkout in (parent, change)]
    if lengths[0] == lengths[1]:
        return None
    return (f"warning: PARENT's path is {lengths[0]} characters and CHANGE's is "
            f"{lengths[1]}; peak_rss_mb moves with path length, so compare it "
            "only between checkouts at paths of equal length")


def describe(checkout: Path) -> str | None:
    """The checkout's commit, with ``-dirty`` when its tracked files differ."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty", "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last output line parsed, with the
    run's ``env`` record, or a result that is not ``correct`` when it gave
    none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": 0, "metrics": {}}
    result["env"] = next((json.loads(line[4:]) for line in lines
                          if line.startswith("env ")), None)
    if proc.returncode != 0:
        result["correct"] = False
        sys.stderr.write(proc.stderr[-2000:])
    return result


def problems_of(side: str, pair: int, result: dict) -> list[str]:
    found = []
    if not result.get("correct"):
        found.append(f"pair {pair} {side}: not correct")
    if result.get("failed"):
        found.append(f"pair {pair} {side}: {result['failed']} failed operations")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--record", action="store_true",
                        help="write BENCH_<workload>.json at CHANGE's root")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = benchmark["end_to_end"]
    workloads = ([w["name"] for w in benchmark["workloads"]]
                 if args.workload == "all" else [args.workload])
    warning = path_length_warning(args.parent, args.change)
    if warning:
        print(warning, file=sys.stderr, flush=True)
    sets = {workload: [] for workload in workloads}
    envs = {}
    problems = []
    for seed in args.seed:
        pairs = {workload: [] for workload in workloads}
        for pair in range(1, args.pairs + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for workload in workloads:
                values, found = {}, []
                for side in order:
                    result = run_once(getattr(args, side), workload, seed,
                                      benchmark["run_seconds"])
                    envs[workload] = result.get("env") or envs.get(workload)
                    values[side] = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                    print(f"pair {pair} {workload} {side}: " + json.dumps(values[side]),
                          flush=True)
                    found += [f"{workload} seed {seed} {problem}"
                              for problem in problems_of(side, pair, result)]
                problems += found
                if not found:
                    pairs[workload].append((values["parent"], values["change"]))
        for workload, done in pairs.items():
            print(f"{workload}, seed {seed}, {len(done)} pairs")
            if done:
                rows = summarize(specs, done)
                print(render(rows))
                sets[workload].append({"seed": seed, "pairs": len(done), "rows": rows})
    if args.record:
        commits = {side: describe(getattr(args, side)) for side in ("parent", "change")}
        for workload, measured in sets.items():
            path = args.change / f"BENCH_{workload}.json"
            record = trend_record(workload, measured, commits, envs.get(workload),
                                  benchmark["run_seconds"], warning is None)
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path}")
    for problem in problems:
        print(problem, file=sys.stderr)
    if warning:
        print(warning, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
