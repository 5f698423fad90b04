"""Alternating parent/change benchmark pairs, summarised per end-to-end metric.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload serve-bigtable --pairs 10 --seed 1
    python3 scripts/ab_pairs.py PARENT CHANGE --workload all --pairs 6

PARENT and CHANGE are two checkouts of this repository. Each pair runs
``perfbench/run.py`` once in each checkout, the parent first on odd pairs
and the change first on even ones, for the run length that the parent's
``BENCHMARK.json`` sets. ``--workload all`` runs every workload that file
lists, one after the other within each pair. Every run is printed as it
finishes. Then, per workload and for each end-to-end metric in
``BENCHMARK.json``, the summary gives each side's median [Q1, Q3], the
change/parent ratio of the medians, the pairs the change won under the
metric's ``better`` (ties count for neither side), whether the change's
median is worse than the parent's by more than the metric's ``bound`` (a
fraction of the parent's median) and whether the medians differ by more
than the parent's quartile spread. The script exits 1 when any run is not
``correct``, has failed operations or gives no result.
"""

from __future__ import annotations

import argparse
import json
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
            "beyond_bound": sign * (c_med - p_med) < -spec["bound"] * abs(p_med),
            "beyond_spread": sign * (c_med - p_med) > p_q3 - p_q1,
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<26}{'parent median [Q1, Q3]':>34}{'change median [Q1, Q3]':>34}"
             f"{'change/parent':>15}{'change wins':>13}  worse > bound  gap > parent IQR"]
    for row in rows:
        sides = ["{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change")]
        lines.append(f"{row['name'] + ' (' + row['unit'] + ')':<26}{sides[0]:>34}"
                     f"{sides[1]:>34}{row['ratio']:>15.3f}"
                     f"{str(row['wins']) + '/' + str(row['pairs']):>13}  "
                     f"{'yes' if row['beyond_bound'] else 'no':<15}"
                     f"{'yes' if row['beyond_spread'] else 'no'}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last output line parsed, or a
    result that is not ``correct`` when it gave none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": 0, "metrics": {}}
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
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = benchmark["end_to_end"]
    workloads = ([w["name"] for w in benchmark["workloads"]]
                 if args.workload == "all" else [args.workload])
    pairs = {workload: [] for workload in workloads}
    problems = []
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for workload in workloads:
            values, found = {}, []
            for side in order:
                result = run_once(getattr(args, side), workload, args.seed,
                                  benchmark["run_seconds"])
                values[side] = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                print(f"pair {pair} {workload} {side}: " + json.dumps(values[side]),
                      flush=True)
                found += [f"{workload} {problem}"
                          for problem in problems_of(side, pair, result)]
            problems += found
            if not found:
                pairs[workload].append((values["parent"], values["change"]))
    for workload, done in pairs.items():
        print(f"{workload}, seed {args.seed}, {len(done)} pairs")
        if done:
            print(render(summarize(specs, done)))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
