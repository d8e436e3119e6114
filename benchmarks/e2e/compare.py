#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

``A`` is the parent (or the first of two sets of one commit), ``B`` the
change. Each file is what ``run.py --out DIR`` writes. Every end-to-end
metric is judged against its own bound from ``BENCHMARK.json``;
per-layer metrics have no bound and are judged against ``--layer-bound``
so the same tool gives a before/after table for them too.

Verdicts (the rules of the choosing-metrics guide, sections 6 and 8):

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but the run-to-run spread (quartile
  distance over median, of either side) is wider than the bound, so
  "no regression" cannot be claimed — unless every run of B reads
  better than every run of A;
* ``better``     — B wins at least nine tenths of all (a, b) pairs and
  the medians differ by more than A's own quartile distance;
* ``unchanged``  — none of the above.

Exit code 1 when any end-to-end row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path: str, trace: int) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run of the wanted kind."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for metric, entry in run["metrics"].items():
            table.setdefault((run["workload"], metric), []).append(entry["value"])
    return table


def judge(a: Sequence[float], b: Sequence[float], higher_is_better: bool,
          bound: float) -> Dict[str, Any]:
    """Verdict and the numbers behind it for one (metric, workload)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if higher_is_better else -1.0
    # positive gain = B reads better than A, as a share of A's median
    gain = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    pairs = [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    ties = sum(1 for x, y in pairs if x == y)
    contested = len(pairs) - ties
    all_better = contested == len(pairs) and wins == len(pairs)
    if gain < -bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "better" if all_better else "unresolved"
    elif contested and wins >= 0.9 * contested and abs(b_med - a_med) > a_q3 - a_q1:
        verdict = "better"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict, "gain": gain, "spread": spread,
        "a": (a_med, a_q1, a_q3, len(a)), "b": (b_med, b_q1, b_q3, len(b)),
    }


def compare(path_a: str, path_b: str, layer_bound: float,
            spec: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    if spec is None:
        with open(SPEC_PATH, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    rows: List[Dict[str, Any]] = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        runs_a, runs_b = load_runs(path_a, trace), load_runs(path_b, trace)
        for metric in spec[section]:
            for workload in (w["name"] for w in spec["workloads"]):
                key = (workload, metric["name"])
                a, b = runs_a.get(key), runs_b.get(key)
                if not a or not b or not any(a + b):
                    continue  # not run, or a layer this workload never enters
                row = judge(a, b, metric["better"] == "higher",
                            metric.get("bound", layer_bound))
                row.update(metric=metric["name"], workload=workload,
                           unit=metric["unit"], gated=section == "end_to_end",
                           bound=metric.get("bound", layer_bound))
                rows.append(row)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results.json of the parent / first set")
    parser.add_argument("b", help="results.json of the change / second set")
    parser.add_argument("--layer-bound", type=float, default=0.10,
                        help="bound applied to per-layer metrics (they gate nothing)")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b, args.layer_bound)
    print(f"{'metric':<40} {'workload':<14} {'verdict':<10} {'gain':>8} {'spread':>7} "
          f"{'bound':>6}  A median [q1, q3] n -> B median [q1, q3] n")
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['metric']:<40} {row['workload']:<14} {row['verdict']:<10} "
              f"{row['gain']:>+8.3f} {row['spread']:>7.3f} {row['bound']:>6.2f}  "
              f"{a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}] {a[3]} -> "
              f"{b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] {b[3]} {row['unit']}"
              + ("" if row["gated"] else "  (layer)"))
    blocking = [r for r in rows if r["gated"] and r["verdict"] in ("worse", "unresolved")]
    print(f"\n{len(rows)} rows; {len(blocking)} end-to-end rows worse or unresolved")
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main())
