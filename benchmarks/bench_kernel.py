"""Kernel event-dispatch benchmark with a committed regression baseline.

Runs the standing suite from :mod:`repro.obs.bench` (trace-on vs
trace-off pairs of full mutable-checkpoint runs) and compares
*hardware-normalized* rates against ``BENCH_kernel.json`` at the repo
root.

Usage::

    python benchmarks/bench_kernel.py              # run + compare
    python benchmarks/bench_kernel.py --write      # (re)write the baseline
    python benchmarks/bench_kernel.py --check      # exit 1 on >25% regression
    python benchmarks/bench_kernel.py --ladder     # add the population ladder
    python benchmarks/bench_kernel.py --trend      # per-case history trends

``--ladder`` appends the fixed-budget population rungs
(``mutable_{256,1024,4096}p_trace_off`` plus the sampler-on
``mutable_1024p_timeseries_1s`` twin, the 8-cell ``mutable_1024p_mss8``
and the snapshot round trip; the default suite's
``mutable_32p_trace_off`` is the 32p rung) and prints the 1024p-vs-32p
per-event ratio — the scaling acceptance number, which must stay under
4x — and the timeseries sampling overhead (acceptance: <= 3%).

Every run (except ``--trend``) also appends a machine-normalized,
git-sha-stamped record to ``BENCH_history.jsonl`` at the repo root
(``"dirty": true`` when ``src`` or ``benchmarks`` had uncommitted
changes, i.e. the sha is the parent of what was measured); ``--trend``
reads that file back and prints one normalized-rate trajectory per
case.

``--check`` is what CI's perf-smoke job runs. The comparison uses
normalized rates (events/s divided by a same-machine calibration-loop
rate), so the committed baseline is meaningful on different hardware;
see docs/API.md for how to read the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.bench import (  # noqa: E402
    DEFAULT_THRESHOLD,
    append_history,
    compare,
    default_cases,
    format_trends,
    ladder_cases,
    load_baseline,
    load_history,
    run_bench_suite,
)

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_kernel.json"
)
HISTORY_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_history.jsonl"
)


def _git(*command: str) -> Optional[str]:
    """Stripped stdout of ``git <command>`` at the repo root; None if it failed."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", *command],
            cwd=os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_sha() -> str:
    return _git("rev-parse", "HEAD") or "unknown"


def _git_dirty() -> bool:
    """Whether the measured code differs from the stamped commit."""
    return bool(_git("status", "--porcelain", "--", "src", "benchmarks"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="write the result as the new baseline")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on regression vs the baseline")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative normalized-rate drop that fails "
                        "--check (default 0.25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per case; best rate is kept")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path")
    parser.add_argument("--ladder", action="store_true",
                        help="append the 256p/1024p/4096p population rungs")
    parser.add_argument("--history", default=HISTORY_PATH,
                        help="bench history JSONL path")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history file")
    parser.add_argument("--trend", action="store_true",
                        help="print per-case trajectories from the history "
                        "file and exit (runs nothing)")
    args = parser.parse_args(argv)

    if args.trend:
        history = load_history(args.history)
        if not history:
            print(f"no history at {args.history}; run the bench to start one")
            return 1
        dirty = sum(1 for record in history if record.get("dirty"))
        print(f"{len(history)} runs in {args.history} "
              f"(oldest left, newest right; {dirty} measured on an "
              f"uncommitted tree):")
        print(format_trends(history))
        return 0

    cases = default_cases()
    if args.ladder:
        cases += ladder_cases()
    report = run_bench_suite(cases=cases, repeats=args.repeats)
    for row in report["results"]:
        print(
            f"{row['name']:28s} {row['events']:8d} events  "
            f"{row['rate']:10.0f} ev/s  normalized {row['normalized_rate']:.5f}"
        )
    by_name = {r["name"]: r for r in report["results"]}
    off = by_name.get("mutable_16p_trace_off")
    on = by_name.get("mutable_16p_trace_on")
    if off and on and on["rate"] > 0:
        print(f"trace-off speedup over trace-on: {off['rate'] / on['rate']:.2f}x")
    small = by_name.get("mutable_32p_trace_off")
    large = by_name.get("mutable_1024p_trace_off")
    if small and large and large["rate"] > 0:
        print(
            "1024p per-event cost vs 32p: "
            f"{small['rate'] / large['rate']:.2f}x (acceptance: < 4x)"
        )
    sampled = by_name.get("mutable_1024p_timeseries_1s")
    if large and sampled and large["rate"] > 0:
        overhead = 1.0 - sampled["rate"] / large["rate"]
        print(
            "1024p timeseries sampling overhead: "
            f"{overhead * 100:.1f}% (acceptance: <= 3%)"
        )

    if not args.no_history:
        append_history(args.history, report, git_sha=_git_sha(),
                       dirty=_git_dirty())
        print(f"history appended to {args.history}")

    if args.write:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline}; run with --write to create one")
        return 1 if args.check else 0
    warnings: list = []
    failures = compare(baseline, report, threshold=args.threshold,
                       warnings=warnings)
    for line in warnings:
        print(f"WARNING: {line}")
    if failures:
        for line in failures:
            print(f"REGRESSION: {line}")
        return 1 if args.check else 0
    print(f"no regression vs baseline (threshold {args.threshold * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
