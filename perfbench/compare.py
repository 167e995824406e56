"""Compare two sets of result files, one row per workload and metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result directories: a path, or a name under
perfbench/results/ (run.py --out NAME).  Runs are paired by seed, else in
seed order; run parent and change alternately so pairs share conditions.

Verdicts, per metric:
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json); for a per-layer metric,
              which has no bound, the mirror of `better`
  unresolved  neither
Counts (calls, passes, sites, elements, bytes) are exact: `same` or
`changed`.  Runs of one seed must have identical output digests on both
sides; a mismatch is reported and makes the exit code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import spec
import stats

RESULTS = Path(__file__).resolve().parent / "results"
COUNT_SUFFIXES = ("calls", "passes", "sites", "elements", "output_bytes")


def load(arg: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> result."""
    path = Path(arg) if Path(arg).is_dir() else RESULTS / arg
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for f in sorted(path.glob("*.json")):
        res = json.loads(f.read_text())
        runs.setdefault((res["workload"], res["trace"]), {})[res["seed"]] = res
    if not runs:
        raise SystemExit(f"no result files in {path}")
    return runs


def pair(a: dict[int, float], b: dict[int, float]) -> list[tuple[float, float]]:
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip((a[s] for s in sorted(a)), (b[s] for s in sorted(b))))


def verdict(parent: list[float], change: list[float], pairs, better: str,
            bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, med_a, q3 = stats.quartiles(parent)
    med_b = statistics.median(change)
    apart = abs(med_b - med_a) > q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and apart and sign * (med_b - med_a) > 0:
        return "better"
    if bound is not None:
        if sign * (med_a - med_b) > bound * abs(med_a):
            return "worse"
    elif pairs and losses >= 0.9 * len(pairs) and apart and sign * (med_a - med_b) > 0:
        return "worse"
    return "unresolved"


def direction(name: str) -> tuple[str, float | None]:
    known = spec.metric_table().get(name)
    if known:
        return known[1], known[2]
    return "lower", None  # per-layer times, ns per call, overhead ratio


def compare(parent_runs, change_runs) -> int:
    status = 0
    print(f"{'workload':8s} {'metric':46s} {'parent median [Q1, Q3]':>30s} "
          f"{'change median [Q1, Q3]':>30s} {'wins':>6s}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        a_runs, b_runs = parent_runs[key], change_runs[key]
        for seed in sorted(set(a_runs) & set(b_runs)):
            da, db = a_runs[seed]["output_digest"], b_runs[seed]["output_digest"]
            if da != db:
                print(f"{workload:8s} seed {seed}: OUTPUT DIGEST DIFFERS {da[:16]} vs {db[:16]}")
                status = 1
        rounds = ({r["rounds"] for r in a_runs.values()}, {r["rounds"] for r in b_runs.values()})
        if rounds[0] != rounds[1]:
            print(f"{workload:8s} rounds per run differ: {rounds[0]} vs {rounds[1]}")
        names = [n for n in a_runs[min(a_runs)]["metrics"]
                 if all(n in r["metrics"] for r in (*a_runs.values(), *b_runs.values()))]
        for name in names:
            a = {s: r["metrics"][name] for s, r in a_runs.items()}
            b = {s: r["metrics"][name] for s, r in b_runs.items()}
            pairs = pair(a, b)
            if name.rsplit(".", 1)[-1] in COUNT_SUFFIXES:
                result = "same" if all(x == y for x, y in pairs) else "changed"
                wins = ""
            else:
                better, bound = direction(name)
                result = verdict(list(a.values()), list(b.values()), pairs, better, bound)
                sign = 1 if better == "higher" else -1
                wins = f"{sum(1 for x, y in pairs if sign * (y - x) > 0)}/{len(pairs)}"
            print(f"{workload:8s} {name:46s} {_summary(list(a.values())):>30s} "
                  f"{_summary(list(b.values())):>30s} {wins:>6s}  {result}")
    return status


def _summary(values: list[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
