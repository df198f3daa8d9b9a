"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py A.json B.json

Each file is what ``run.py --all --out FILE`` accumulates: a JSON list
of ``{"workload", "seed", "trace", "metrics"}`` runs (run ``--all``
several times with the same ``--out`` to have a spread).  Per workload,
one row per end-to-end metric: both medians, the ratio **with its
base**, and a verdict from the bound in ``BENCHMARK.json``:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` the run-to-run spread of A or B (interquartile range
  as a share of the median) exceeds the bound, so the runs cannot tell.

A noisy metric is resolved by lengthening the run, never by widening
the bound.  Exits 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per untraced run]}}``."""
    grouped: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8")):
        if run["trace"]:
            continue
        metrics = grouped.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return grouped


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median; 0 for one run."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, share of A's median by which B is worse)``."""
    base, other = statistics.median(a), statistics.median(b)
    change = (other - base) / abs(base)
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(path_a: str, path_b: str) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    status = 0
    print(f"A = {path_a}\nB = {path_b}")
    for workload in (w["name"] for w in declared["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            print(f"\n{workload}: missing from {'A' if workload not in runs_a else 'B'}")
            status = 1
            continue
        count_a = len(next(iter(runs_a[workload].values())))
        count_b = len(next(iter(runs_b[workload].values())))
        print(f"\n{workload}  (A: {count_a} runs, B: {count_b} runs)")
        print(
            f"  {'metric':24s} {'median A':>12s} {'median B':>12s} "
            f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict"
        )
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = runs_a[workload][name], runs_b[workload][name]
            result, _ = verdict(a, b, metric["better"], metric["bound"])
            if result != "ok":
                status = 1
            base, other = statistics.median(a), statistics.median(b)
            print(
                f"  {name:24s} {base:12.5g} {other:12.5g} "
                f"{other / base:7.3f} {spread(a):9.3f} {spread(b):9.3f} "
                f"{metric['bound']:6.3f}  {result}"
                f"  (base A = {base:.5g} {metric['unit']})"
            )
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
