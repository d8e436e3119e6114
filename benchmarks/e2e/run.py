#!/usr/bin/env python3
"""End-to-end + per-layer performance benchmark (see README.md here).

Two ways to run it, one file:

* **one run** — what ``BENCHMARK.json`` describes and the PR driver calls::

      python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  repeats passes of one workload for ``S`` seconds in this process and
  prints one JSON object as the last line of stdout (``--trace 0``: the
  end-to-end metrics, ``--trace 1``: the per-layer metrics).

* **the suite** — every workload, each (workload, repeat) in a fresh
  child process, children launched one at a time round-robin across
  workloads, medians and quartiles over repeats::

      python3 benchmarks/e2e/run.py [--seed 11] [--workload NAME ...]
                                    [--trace] [--out DIR] [--smoke] [--repin]

Host time is ``time.perf_counter``; simulated time is never reported as
performance, only checked for bit-identity.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402 - needs the path entry above
from compare import quartiles  # noqa: E402

# Set-up time starts here, before the program is imported, bracketed by
# host-speed probes like every other timed section.
_SPEED_BEFORE = hostspeed.probe()
_T0 = time.perf_counter()

#: seeds whose simulated results are pinned in expected.json (29 is the
#: held-out one: it was never looked at while sizing the workloads)
PINNED_SEEDS = (11, 29)
#: fresh processes timed for setup_s in one run (this one included)
SETUP_SAMPLES = 4
SUITE_REPEATS = {"paper16_sweep": 5, "scale_ladder": 5, "trace_export": 5,
                 "grid_service": 3}
HOT_LAYERS = ("sim.kernel", "net", "workload", "core.process",
              "checkpointing", "clock", "sim.trace")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median_of(passes: List[Dict[str, Any]], section: str, key: str) -> float:
    values = [p[section][key] for p in passes if key in p[section]]
    return statistics.median(values) if values else 0.0


def steady_seconds(passes: List[Dict[str, Any]], stages: Sequence[str]) -> float:
    """Host seconds of ``stages`` in one pass: each operation's median over the passes.

    Taking the median per operation, not per pass, keeps a burst of host
    noise that hits a few operations of one pass out of the result, as
    long as the same operations ran clean in most other passes.
    """
    total = 0.0
    for stage in stages:
        per_operation = zip(*(p["times"][stage] for p in passes))
        total += sum(statistics.median(times) for times in per_operation)
    return total


def gated_stages(workload: Any, passes: List[Dict[str, Any]]) -> List[str]:
    """The stages of a pass that count in ``pass_s``."""
    return [s for s in passes[0]["times"] if s not in workload.unsteady_stages]


def peak_rss_mb() -> float:
    """This process's high-water mark plus its largest waited-for child's."""
    # Linux reports ru_maxrss in KiB.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds() -> float:
    """Host-speed-corrected seconds since this process started."""
    raw = time.perf_counter() - _T0
    return hostspeed.corrected(raw, _SPEED_BEFORE, hostspeed.probe())


def spin_burn(microseconds: float):
    """A per-event busy wait: the planted slowdown the self-test uses."""
    def burn() -> None:
        until = time.perf_counter() + microseconds * 1e-6
        while time.perf_counter() < until:
            pass
    return burn


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def header(args: argparse.Namespace, schedule: str) -> List[str]:
    import workloads

    tmp_fs = "?"
    try:
        best = ""
        with open("/proc/mounts", "r", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                if str(ROOT).startswith(mount) and len(mount) >= len(best):
                    best, tmp_fs = mount, fstype
    except OSError:
        pass
    start_methods = multiprocessing.get_all_start_methods()
    return [
        f"# nproc={workloads.NPROC} python={platform.python_version()} "
        f"pool_start_method={'fork' if 'fork' in start_methods else 'spawn'} "
        f"tmp_fs={tmp_fs} sizes={'smoke' if args.smoke else 'full'}",
        f"# load generator: {workloads.GENERATOR_THREADS} client thread, closed "
        f"loop of 1 (next request only after the previous reply); engine "
        f"workers=1 (gated) and {workloads.NPROC} (reported), service "
        f"workers={max(1, workloads.NPROC - 1)}",
        f"# times: perf_counter, each timed section scaled to a host on which "
        f"the reference loop takes {hostspeed.REFERENCE_S * 1e3:.2f} ms (hostspeed.py); "
        f"as-measured times are in #detail raw_times",
        f"# schedule: {schedule}",
    ]


def run_passes(workload: Any, seconds: float, traced_every_other: bool,
               tracer: Any) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], Any]:
    """Repeat passes for ``seconds``; returns (untraced, traced, totals)."""
    import spans
    import workloads

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    totals = {"attempted": 0, "failed": 0, "errors": []}
    deadline = time.perf_counter() + seconds
    longest = 0.0
    first_ctx = workload.setup()
    setup_s = setup_seconds()
    index = 0
    while True:
        tracing = traced_every_other and index % 2 == 1
        started = time.perf_counter()
        if tracing:
            tracer.install()
        try:
            ctx = first_ctx if index == 0 else workload.setup()
            first_ctx = None
            ops = workloads.Ops(tracer if tracing else spans.NullTracer())
            try:
                result: Optional[Dict[str, Any]] = workload.run_pass(ctx, ops)
            except workloads.PassAborted:
                result = None
            finally:
                workload.teardown(ctx)
                del ctx
                gc.unfreeze()  # operations freeze what they start from
                gc.collect()
        finally:
            if tracing:
                tracer.uninstall()
        totals["attempted"] += ops.attempted
        totals["failed"] += ops.failed
        totals["errors"] += ops.errors
        if result is not None:
            result["times"] = ops.times
            result["raw_times"] = ops.raw_times
            (traced if tracing else untraced).append(result)
        index += 1
        longest = max(longest, time.perf_counter() - started)
        enough = len(untraced) >= 2 and (traced or not traced_every_other)
        if index >= 64 or (enough and time.perf_counter() + longest > deadline):
            break
        if index >= 4 and not untraced:
            break  # nothing succeeds; do not spin until the deadline
    return untraced, traced, {**totals, "setup_s": setup_s}


def setup_only(args: argparse.Namespace) -> int:
    """Child mode: import, build the first pass's inputs, report, leave."""
    import workloads

    workload = workloads.WORKLOADS[args.workload[0]](
        args.seed, workloads.SIZES["smoke" if args.smoke else "full"])
    try:
        ctx = workload.setup()
        elapsed = setup_seconds()
        workload.teardown(ctx)
    finally:
        workload.close()
    print(repr(elapsed))
    return 0


def setup_samples(args: argparse.Namespace, own: float) -> List[float]:
    """Set-up time of fresh processes: this one plus a few children."""
    samples = [own]
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload[0], "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def check_digests(args: argparse.Namespace, passes: List[Dict[str, Any]],
                  totals: Dict[str, Any]) -> None:
    """Every pass must agree, and pinned seeds must match expected.json."""
    name = args.workload[0]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        totals["failed"] += 1
        totals["errors"].append(f"sim digest differs between passes: {sorted(digests)}")
    if args.smoke or args.repin or args.seed not in PINNED_SEEDS:
        return
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)[str(args.seed)][name]
    for result in passes:
        if result["digest"] != pinned["digest"] or result["counts"] != pinned["counts"]:
            totals["failed"] += 1
            totals["errors"].append(
                f"simulated results differ from expected.json for seed {args.seed}: "
                f"{result['digest']} {result['counts']}")
            break


def layer_metrics(workload: Any, untraced: List[Dict[str, Any]],
                  traced: List[Dict[str, Any]], tracer: Any,
                  iso_values: Dict[str, float], diff: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric by name; 0 = this workload never goes there."""
    import spans

    def value(key: str) -> float:
        return median_of(untraced, "values", key)

    def extra(key: str) -> float:
        return median_of(untraced, "extra", key)

    def count(key: str) -> float:
        return median_of(untraced, "counts", key)

    n_traced = max(1, len(traced))
    stats = tracer.stats

    def mean_ms(layer: str, function: str) -> float:
        stat = stats.get((layer, function))
        return stat[2] / stat[0] / 1e6 if stat and stat[0] else 0.0

    def calls(layer: str, function: str) -> float:
        stat = stats.get((layer, function))
        return stat[0] / n_traced if stat else 0.0

    m: Dict[str, float] = dict(iso_values)
    for name in ("cli_cold_run_s", "events_per_s_4096p", "shards2_events_per_s",
                 "snapshot_write_ms", "snapshot_resume_ms", "export_records_per_s",
                 "verify_s", "points_per_s", "miss_results_s"):
        m[name] = value(name)
    hits = [ms for p in untraced for ms in p.get("samples", {}).get("hit_ms", [])]
    m["hit_ms_p50"] = statistics.median(hits) if hits else 0.0
    m["service.server.hit_ms_p95"] = percentile(hits, 0.95)

    # Shares partition the traced stage wall time of the main thread.
    main_self = tracer.layer_self_ns()
    wall_ns = sum(main_self.values())
    for layer in spans.LAYERS:
        m[f"{layer}.share"] = main_self.get(layer, 0) / wall_ns if wall_ns else 0.0
    m["unattributed.share"] = main_self.get("unattributed", 0) / wall_ns if wall_ns else 0.0
    all_self: Dict[str, int] = {}
    for (layer, _), (_, self_ns, _) in stats.items():
        all_self[layer] = all_self.get(layer, 0) + self_ns
    for layer in HOT_LAYERS:
        m[f"{layer}.self_us_per_event"] = (
            all_self.get(layer, 0) / 1e3 / tracer.events if tracer.events else 0.0)

    heap = tracer.heap_stats()
    m["sim.kernel.heap_pushes"] = heap["heap_pushes"] / n_traced
    m["sim.kernel.cancelled_pop_ratio"] = heap["cancelled_pop_ratio"]
    m["sim.kernel.heap_depth_max"] = heap["heap_depth_max"]
    m["net.sends"] = calls("net", "MobileNetwork.send_from_process")
    m["net.wired_msgs"] = extra("wired_msgs")
    m["net.wireless_msgs"] = extra("wireless_msgs")
    m["checkpointing.system_msgs"] = count("system_msgs")
    m["checkpointing.forced_checkpoints"] = count("forced_checkpoints")
    taken = count("mutable_taken")
    m["checkpointing.redundant_mutable_ratio"] = (
        count("mutable_discarded") / taken if taken else 0.0)
    m["checkpointing.blocked_process_s"] = count("blocked_process_s")
    stamps = tracer.counts.get("clock.stamps", 0)
    m["clock.stamps"] = stamps / n_traced
    m["clock.full_stamp_ratio"] = (
        tracer.counts.get("clock.full_stamps", 0) / stamps if stamps else 0.0)
    m["sim.trace.records"] = (calls("sim.trace", "TraceLog.record")
                              + calls("sim.trace", "TraceLog.debug"))
    m["sim.trace.debug_cost_ratio"] = diff.get("debug_cost_ratio", 0.0)
    m["sim.export.save_ms"] = extra("export_save_ms")
    m["sim.export.bytes"] = extra("export_bytes")
    m["sim.export.hash_ms"] = extra("export_hash_ms")
    m["sim.export.read_ms"] = extra("export_read_ms")
    m["explore.invariants.check_ms"] = extra("invariants_ms")
    m["analysis.consistency.check_ms"] = extra("consistency_ms")
    m["sim.shard.windows"] = extra("shard_windows")
    m["sim.shard.envelopes"] = extra("shard_envelopes")
    m["sim.shard.violations"] = extra("shard_violations")
    m["sim.shard.stall_s"] = extra("shard_stall_s")
    m["sim.shard.ratio_vs_sequential"] = extra("shard_ratio_vs_sequential")
    m["snapshot.state.capture_ms"] = mean_ms("snapshot.state", "snapshotter.capture")
    m["snapshot.state.restore_ms"] = mean_ms("snapshot.state", "snapshotter.restore")
    m["snapshot.state.payload_mb"] = extra("snapshot_payload_mb")
    m["snapshot.format.write_ms"] = mean_ms("snapshot.format", "snapshotter.write_snapshot")
    m["snapshot.format.read_ms"] = mean_ms("snapshot.format", "snapshotter.read_snapshot")
    m["campaign.engine.dispatch_overhead_ratio"] = extra("dispatch_overhead_ratio")
    m["campaign.engine.failed_points"] = extra("failed_points")
    m["service.cache.partition_ms"] = mean_ms("service", "ResultCache.partition")
    m["service.cache.hit_ratio"] = extra("cache_hit_ratio")
    m["service.jobs.submit_ms"] = mean_ms("service", "JobManager.submit")
    m["service.jobs.snapshots_per_point"] = extra("snapshots_per_point")
    m["service.jobs.snapshot_share"] = diff.get("snapshot_share", 0.0)
    m["service.server.results_bytes"] = extra("results_bytes")
    m["service.server.http_errors"] = extra("http_errors")
    m["bench.generator_cpu_share"] = extra("generator_cpu_share")
    stages = gated_stages(workload, untraced)
    m["bench.tracing_overhead_ratio"] = (
        steady_seconds(traced, stages) / steady_seconds(untraced, stages))
    return m


def run_one(args: argparse.Namespace) -> int:
    import iso
    import spans
    import workloads

    if workloads.GENERATOR_THREADS > workloads.NPROC:
        print(f"refusing to start: {workloads.GENERATOR_THREADS} generator "
              f"threads on {workloads.NPROC} cores", file=sys.stderr)
        return 2
    spec = load_spec()
    name = args.workload[0]
    sizes = workloads.SIZES["smoke" if args.smoke else "full"]
    burn = spin_burn(args.burn_us) if args.burn_us else None
    workload = workloads.WORKLOADS[name](args.seed, sizes, burn=burn)
    tracer = spans.Tracer()
    trace = bool(args.trace)
    for line in header(args, f"{name} seed={args.seed} trace={int(trace)}: passes "
                             f"repeat for {args.seconds:g} s"
                             + (", untraced and traced alternating" if trace else "")):
        print(line)
    try:
        untraced, traced, totals = run_passes(workload, args.seconds, trace, tracer)
        rss = peak_rss_mb()  # before the set-up children can raise it
        if not untraced or (trace and not traced):
            for error in totals["errors"]:
                print(f"# FAILED: {error}", file=sys.stderr)
            return 1
        check_digests(args, untraced + traced, totals)
        setups: List[float] = []
        if trace:
            diff = workload.differentials()
            iso_values = iso.run_all(args.seed, args.smoke, str(ROOT / "src"),
                                     workload.tmp, workloads.NPROC)
            values = layer_metrics(workload, untraced, traced, tracer, iso_values, diff)
            declared = spec["per_layer"]
        else:
            setups = setup_samples(args, totals["setup_s"])
            values = {
                "setup_s": statistics.median(setups),
                "events_per_s": untraced[0]["events"] / steady_seconds(
                    untraced, untraced[0]["rate_stages"]),
                "pass_s": steady_seconds(untraced, gated_stages(workload, untraced)),
                "peak_rss_mb": rss,
            }
            declared = spec["end_to_end"]
    finally:
        workload.close()

    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(values))}")
    print(f"# {name}: {len(untraced)} untraced + {len(traced)} traced passes, "
          f"{totals['attempted']} operations, {totals['failed']} failed")
    for metric in declared:
        print(f"{metric['name']:<42} {values[metric['name']]:>16.6g} "
              f"{metric['unit']:<7} {metric['better']} is better")
    for error in totals["errors"]:
        print(f"# FAILED: {error}")
    slowness = statistics.median(
        raw / scaled for p in untraced for stage, times in p["times"].items()
        for raw, scaled in zip(p["raw_times"][stage], times))
    print(f"# host speed: the reference loop took {slowness:.3f}x its reference "
          f"time (median over operations)")
    if trace and args.out:
        tracer.write(os.path.join(args.out, name), {
            "workload": name, "seed": args.seed, "traced_passes": len(traced),
            "events_traced": tracer.events,
            "per_protocol": untraced[0]["extra"].get("per_protocol", {}),
            "metrics": values,
        })
    detail = {
        "workload": name, "seed": args.seed, "trace": int(trace),
        "digest": untraced[0]["digest"], "counts": untraced[0]["counts"],
        "passes": len(untraced),
        "events": untraced[0]["events"], "rate_stages": untraced[0]["rate_stages"],
        "times": [p["times"] for p in untraced],
        "raw_times": [p["raw_times"] for p in untraced],
        "setups": setups,
        "errors": totals["errors"],
    }
    print("#detail " + json.dumps(detail, sort_keys=True))
    units = {metric["name"]: metric["unit"] for metric in declared}
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0 if totals["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------
def run_child(args: argparse.Namespace, name: str, seed: int, trace: int,
              seconds: float) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.repin:
        command.append("--repin")
    if args.burn_us:
        command += ["--burn-us", str(args.burn_us)]
    if args.out:
        command += ["--out", args.out]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    run: Dict[str, Any] = {"workload": name, "seed": seed, "trace": trace,
                           "exit_code": done.returncode,
                           "wall_s": time.perf_counter() - started}
    try:
        run.update(json.loads(lines[-1]))
        run["detail"] = json.loads(lines[-2].split(" ", 1)[1])
    except (IndexError, ValueError):
        run.update(correct=False, attempted=1, failed=1, metrics={},
                   detail={"errors": [done.stderr.strip()[-2000:]]})
    return run


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(metric, []).append(entry["value"])
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, metrics in table.items():
        for metric, values in metrics.items():
            q1, med, q3 = quartiles(values)
            summary.setdefault(name, {})[metric] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "iqr_ratio": (q3 - q1) / med if med else 0.0,
            }
    return summary


def run_suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    repeats = {n: (1 if args.smoke else args.repeats or SUITE_REPEATS[n]) for n in names}
    seeds = list(PINNED_SEEDS) if args.repin else [args.seed]
    if args.repin:
        repeats = {n: 1 for n in names}
    # Round-robin across workloads (A B C D A B C D ...), never the same
    # workload back to back: drift in host speed then hits every
    # workload's repeats alike instead of one workload's median. Repeat r
    # runs seed + r, as the PR driver gives every run another seed, so the
    # spread printed here includes what the inputs contribute.
    schedule: List[Tuple[str, int, int]] = []
    for seed in seeds:
        for repeat in range(max(repeats.values())):
            schedule += [(n, seed + repeat, 0) for n in names if repeat < repeats[n]]
        if args.trace:
            schedule += [(n, seed, 1) for n in names]
    for line in header(args, " ".join(
            f"{n}{'[traced]' if t else ''}" for n, _, t in schedule)):
        print(line)

    runs = []
    for name, seed, trace in schedule:
        run = run_child(args, name, seed, trace, seconds)
        runs.append(run)
        print(f"# {name} seed={seed} trace={trace}: "
              f"{run['attempted'] - run['failed']}/{run['attempted']} operations ok, "
              f"{run['wall_s']:.1f} s" + ("" if run["correct"] else "  ** FAILED **"))
        for error in run["detail"].get("errors", []):
            print(f"#   {error}")

    summary = summarise(runs)
    print(f"\n{'workload':<14} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>2} {'iqr/med':>8}  unit, better")
    for name in names:
        for metric, row in summary.get(name, {}).items():
            info = declared[metric]
            print(f"{name:<14} {metric:<40} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['n']:>2} {row['iqr_ratio']:>8.3f}  "
                  f"{info['unit']}, {info['better']}")
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    print(f"\noperations: {attempted} attempted, {failed} failed")

    if args.repin:
        pinned = {
            str(seed): {run["workload"]: {"digest": run["detail"]["digest"],
                                          "counts": run["detail"]["counts"]}
                        for run in runs if run["seed"] == seed and "digest" in run["detail"]}
            for seed in seeds
        }
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"re-pinned {EXPECTED_PATH}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "smoke": args.smoke, "runs": runs,
                       "summary": summary}, fh, indent=1, sort_keys=True)
    return 0 if failed == 0 and all(run["exit_code"] == 0 for run in runs) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (one run: exactly one; suite: a subset)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for this long (selects one-run mode)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="one run: 0|1; suite: add a traced pass per workload")
    parser.add_argument("--out", default=None,
                        help="directory for results.json, trace.jsonl, layers.json")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: plumbing only")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json from seeds 11 and 29")
    parser.add_argument("--burn-us", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.seconds is None:
        return run_suite(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("one-run mode needs exactly one --workload")
    return run_one(args)


if __name__ == "__main__":
    gc.enable()
    sys.exit(main())
