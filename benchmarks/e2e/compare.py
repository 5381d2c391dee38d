"""Compare two result sets written by ``python -m benchmarks.e2e --out``.

    python benchmarks/e2e/compare.py A.json B.json

*A* is the base (the parent commit), *B* the change.  One row per
(workload, end-to-end metric): both medians with the number of runs
behind them, the ratio B/A, and a verdict from the bound that
``BENCHMARK.json`` fixes for the metric:

``worse``         B's median is worse than A's by more than the bound
``better``        B's median is better than A's by more than the bound
``within-bound``  neither
``unresolved``    a side's own runs spread (quartile distance over
                  median) wider than the bound, so the medians cannot
                  settle it, unless every run of one side beats every
                  run of the other

Exact-count layer metrics must be identical and no op may have failed;
either is reported as ``worse``.  Exits 1 on any ``worse`` row.
"""

import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.e2e.spec import EXACT_COUNTS, load_spec, spread  # noqa: E402


def load_runs(path):
    with open(path) as handle:
        return json.load(handle)["runs"]


def series(runs, workload, group, name):
    """The metric's value in each run that has the workload."""
    return [run["workloads"][workload][group][name]["value"]
            for run in runs if workload in run["workloads"]]


def verdict(base, change, better, bound):
    """The row's verdict and the ratio of medians (change / base)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    ratio = change_median / base_median if base_median else float("inf")
    if better == "higher":
        worse_by = 1.0 - ratio
        wins = min(change) > max(base)
        loses = max(change) < min(base)
    else:
        worse_by = ratio - 1.0
        wins = max(change) < min(base)
        loses = min(change) > max(base)
    if max(spread(base), spread(change)) > bound:
        if wins:
            return "better", ratio
        if loses:
            return "worse", ratio
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if -worse_by > bound:
        return "better", ratio
    return "within-bound", ratio


def compare(base_runs, change_runs, spec):
    """Rows ``(workload, metric, text, verdict)`` for every comparison."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = series(base_runs, workload, "end_to_end", name)
            change = series(change_runs, workload, "end_to_end", name)
            if not base or not change:
                continue
            outcome, ratio = verdict(base, change, metric["better"],
                                     metric["bound"])
            text = "%12.5g (n=%d) %12.5g (n=%d) %7.3f  bound %.2f" % (
                statistics.median(base), len(base),
                statistics.median(change), len(change), ratio,
                metric["bound"])
            rows.append((workload, "%s [%s]" % (name, metric["unit"]),
                         text, outcome))
        for name in EXACT_COUNTS:
            base = set(series(base_runs, workload, "per_layer", name))
            change = set(series(change_runs, workload, "per_layer", name))
            if not base or not change:
                continue
            same = len(base) == 1 and base == change
            rows.append((workload, name, "%s vs %s" % (
                sorted(base), sorted(change)),
                "identical" if same else "worse"))
        failed = sum(run["workloads"][workload]["failed"]
                     for run in base_runs + change_runs
                     if workload in run["workloads"])
        rows.append((workload, "failed ops", str(failed),
                     "worse" if failed else "none"))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), load_spec())
    print("%-15s %-24s %12s %18s %13s" % (
        "workload", "metric", "base median", "change median", "ratio"))
    for workload, metric, text, outcome in rows:
        print("%-15s %-24s %s  %s" % (workload, metric, text, outcome))
    worse = sum(1 for row in rows if row[3] == "worse")
    unresolved = sum(1 for row in rows if row[3] == "unresolved")
    print("%d worse, %d unresolved, %d rows" % (worse, unresolved,
                                                len(rows)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
