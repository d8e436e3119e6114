"""Kernel benchmark: measured event-dispatch rates with a committed baseline.

``benchmarks/bench_kernel.py`` and ``repro-sim profile --bench`` both run
:func:`run_bench_suite`, which times a fixed set of simulation scenarios
and reports **events per second**. Because raw rates are
hardware-dependent, every result also carries a *normalized* rate:
``rate / calibration_rate``, where the calibration rate comes from a
fixed pure-Python spin loop timed on the same machine in the same
process. Normalized rates are comparable across machines to first
order, which is what lets ``BENCH_kernel.json`` live in the repository
and CI fail on genuine regressions rather than on slower runners.

Regression rule (:func:`compare`): a case regresses when its normalized
rate drops more than ``threshold`` (default 25%) below the baseline's.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.engine import build_point_runtime
from repro.campaign.spec import RunPoint
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.net.message import ComputationMessage

__all__ = [
    "BenchCase",
    "BenchResult",
    "append_history",
    "calibrate",
    "compare",
    "default_cases",
    "experiment_case",
    "format_trends",
    "ladder_case",
    "ladder_cases",
    "load_history",
    "run_bench_suite",
]

#: regression threshold used by CI (fraction of normalized baseline rate)
DEFAULT_THRESHOLD = 0.25

#: iterations of the calibration spin loop (~tens of ms on 2020s CPUs)
_CALIBRATION_ITERS = 2_000_000


def calibrate() -> float:
    """Machine-speed yardstick: iterations/second of a fixed spin loop.

    Pure Python, allocation-free, interpreter-bound — the same work the
    kernel's hot path is made of, so dividing a bench rate by this rate
    cancels most of the hardware/interpreter speed difference between
    the committing machine and the checking machine.
    """
    best = 0.0
    for _ in range(5):
        acc = 0
        start = time.perf_counter()
        for i in range(_CALIBRATION_ITERS):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = max(best, _CALIBRATION_ITERS / elapsed)
    return best


#: a planted per-operation slowdown (regression-detection self-test)
Burn = Optional[Callable[[], None]]


@dataclass
class BenchCase:
    """One benchmark scenario.

    ``run(burn)`` executes it once and returns ``(operations,
    wall_seconds)``; operations are kernel events, loop iterations or
    store calls, whatever the case counts. ``burn``, when given, is
    invoked once per operation to plant an artificial slowdown. The
    builders below make every case the suite runs.
    """

    name: str
    run: Callable[..., Tuple[int, float]]
    description: str = ""


@dataclass
class BenchResult:
    """Measured outcome of one case on one machine."""

    name: str
    events: int
    seconds: float
    rate: float
    normalized_rate: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "events": self.events,
            "seconds": self.seconds,
            "rate": self.rate,
            "normalized_rate": self.normalized_rate,
        }


def _mutable_p2p(
    max_initiations: int, **system_params: Any
) -> Tuple[MobileSystem, ExperimentRunner]:
    """The system every kernel case drives: seed 7, mutable checkpoints,
    point-to-point traffic at one send per second."""
    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 1.0},
        system_params=system_params,
        run_params={"max_initiations": max_initiations},
        seed=7,
    ))
    return system, runner


def experiment_case(
    name: str,
    build: Callable[[], Tuple[MobileSystem, ExperimentRunner]],
    description: str = "",
) -> BenchCase:
    """A completion-driven case: build a runner, time ``runner.run()``.

    ``burn`` rides the kernel's
    :meth:`~repro.sim.kernel.Simulator.set_burn` hook, so it slows the
    loop the runner actually uses.
    """

    def run(burn: Burn = None) -> Tuple[int, float]:
        system, runner = build()
        system.sim.set_burn(burn)
        start = time.perf_counter()
        runner.run()
        elapsed = time.perf_counter() - start
        return system.sim.events_processed, elapsed

    return BenchCase(name, run, description)


def _message_alloc_case(iterations: int = 200_000) -> BenchCase:
    """Message construction + tagging micro-bench (tracks the slotted
    message classes and the zero-alloc piggyback fast lane); kernel-free,
    the reported "events" are iterations."""

    def op(i: int) -> Any:
        message = ComputationMessage(src_pid=0, dst_pid=1, payload=i, msg_id=i)
        message.pb = (i, None)
        return message

    def run(burn: Burn = None) -> Tuple[int, float]:
        start = time.perf_counter()
        if burn is None:
            for i in range(iterations):
                op(i)
        else:
            for i in range(iterations):
                burn()
                op(i)
        return iterations, time.perf_counter() - start

    return BenchCase(
        "message_alloc", run,
        "construct one slotted ComputationMessage and tag its csn pair",
    )


def _snapshot_overhead_case() -> BenchCase:
    """The 16p trace-off run with in-memory snapshots every 1000 events.

    Pairs with ``mutable_16p_trace_off`` (identical run, snapshotting
    disabled): their rate ratio is the whole-state capture cost, and the
    25% :func:`compare` gate keeps both the hook and the pickle path
    honest.
    """

    def build() -> Tuple[MobileSystem, ExperimentRunner]:
        from repro.snapshot import SnapshotPolicy, Snapshotter

        system, runner = _mutable_p2p(12, n_processes=16, trace_messages=False)
        Snapshotter(runner, SnapshotPolicy(every_events=1000)).install()
        return system, runner

    return experiment_case(
        "snapshot_overhead", build,
        "16-process trace-off run snapshotting whole state in memory "
        "every 1000 events",
    )


def _store_case(
    name: str, backend: str, description: str, points: int = 10_000
) -> BenchCase:
    """Result-store backend throughput: N appends then N hash lookups.

    Each run writes into a fresh temporary directory (deleted
    afterwards), so the measurement is the backend's steady-state
    append+lookup path, not filesystem reuse artifacts. Reported
    "events" are operations (2 × points).

    The JSONL backend fsyncs every append (its durability contract), so
    its rate is partly disk-bound; the SQLite backend commits in WAL
    mode with ``synchronous=NORMAL`` and batches fsyncs. The pair
    documents what the service gains by moving campaign results into
    SQLite — and the 25% gate keeps both append paths honest.
    """

    def run(burn: Burn = None) -> Tuple[int, float]:
        from repro.campaign.store import PointRecord, ResultStore
        from repro.service.db import ResultDB

        records = [
            PointRecord(
                point_hash=f"{i:032x}",
                status="ok",
                point={"protocol": "mutable", "seed": i},
                result={"protocol": "mutable", "n_processes": 2, "seed": i,
                        "initiations": [], "counters": {},
                        "total_blocked_time": 0.0, "sim_time": 1.0,
                        "wall_events": 10},
            )
            for i in range(points)
        ]
        workdir = tempfile.mkdtemp(prefix="bench-store-")
        try:
            store: Any = (
                ResultStore(workdir + "/results.jsonl")
                if backend == "jsonl"
                else ResultDB(workdir + "/results.sqlite")
            )
            start = time.perf_counter()
            for record in records:
                if burn is not None:
                    burn()
                store.append(record)
            for record in records:
                if burn is not None:
                    burn()
                if store.get(record.point_hash) is None:
                    raise AssertionError("lookup missed a written record")
            elapsed = time.perf_counter() - start
            store.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 2 * points, elapsed

    return BenchCase(name, run, description)


def _trace_codec_case() -> BenchCase:
    """The trace codec on one 16p DEBUG trace (built untimed): save,
    re-read, hash. Reported "events" are records x 3, one per step."""

    def run(burn: Burn = None) -> Tuple[int, float]:
        from repro.sim.export import read_trace, save_trace

        system, runner = _mutable_p2p(2, n_processes=16, trace_messages=True)
        runner.run()
        trace = system.sim.trace
        with tempfile.TemporaryDirectory(prefix="bench-codec-") as workdir:
            start = time.perf_counter()
            for _ in range(3 * len(trace) if burn is not None else 0):
                burn()
            save_trace(trace, workdir + "/trace.jsonl")
            reread = read_trace(workdir + "/trace.jsonl")
            trace.content_hash()
            elapsed = time.perf_counter() - start
        if len(reread) != len(trace):
            raise AssertionError("the re-read trace lost records")
        return 3 * len(trace), elapsed

    return BenchCase(
        "trace_codec_16p", run,
        "save + re-read + content_hash of one 16-process DEBUG trace",
    )


def ladder_case(
    name: str, description: str = "", max_events: int = 150_000,
    **system_params: Any,
) -> BenchCase:
    """A population rung: a fixed event budget on one system shape.

    Completion-driven cases (the default suite) are intractable at 1k+
    processes, so ladder rungs drive the kernel for a fixed number of
    events through the same loop the runner uses and report the same
    events/second. ``system_params`` are :class:`SystemConfig` fields
    (``n_processes``, ``n_mss``, ``timeseries_window``).
    """

    def run(burn: Burn = None) -> Tuple[int, float]:
        from repro.errors import SimulationError

        system, runner = _mutable_p2p(2, trace_messages=False, **system_params)
        system.sim.set_burn(burn)
        start = time.perf_counter()
        try:
            runner.run(max_events=max_events)
        except SimulationError:
            # budget reached — the measurement, not an error
            pass
        elapsed = time.perf_counter() - start
        return system.sim.events_processed, elapsed

    return BenchCase(name, run, description)


def _snapshot_roundtrip_case(n: int) -> BenchCase:
    """A crash-resume at population ``n``: the 8-cell rung is driven for
    10 000 events (untimed), then its whole state goes to disk and
    comes back (capture + ``write_snapshot`` + ``read_snapshot`` +
    restore). Reported "events" are process states round-tripped, so
    the rate does not reward a fatter file.
    """

    def run(burn: Burn = None) -> Tuple[int, float]:
        from repro.errors import SimulationError
        from repro.snapshot import Snapshotter, resume_run

        _, runner = _mutable_p2p(2, trace_messages=False, n_processes=n, n_mss=8)
        try:
            runner.run(max_events=10_000)
        except SimulationError:
            pass  # budget reached: the state to snapshot
        workdir = tempfile.mkdtemp(prefix="bench-snapshot-")
        try:
            start = time.perf_counter()
            if burn is not None:
                for _ in range(n):
                    burn()
            resume_run(Snapshotter(runner, directory=workdir).take())
            elapsed = time.perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return n, elapsed

    return BenchCase(
        f"snapshot_roundtrip_{n}p", run,
        f"write the {n}p 8-cell rung to disk after 10k events and resume it",
    )


def _build_case(n: int) -> BenchCase:
    """Building the ``n``-process 8-cell system, nothing run: "events"
    are builds. What a build allocates per process is what it costs."""

    def run(burn: Burn = None) -> Tuple[int, float]:
        gc.collect()  # the previous repeat's system, not this build's bill
        start = time.perf_counter()
        if burn is not None:
            for _ in range(n):
                burn()
        _mutable_p2p(2, trace_messages=False, n_processes=n, n_mss=8)
        return 1, time.perf_counter() - start

    return BenchCase(
        f"build_{n}p", run, f"build the {n}p 8-cell system (no events)"
    )


def ladder_cases(
    populations: Tuple[int, ...] = (256, 1024, 4096), max_events: int = 150_000
) -> List[BenchCase]:
    """The population ladder: per-event rates at growing system sizes.

    Together with the default suite's ``mutable_32p_trace_off`` rung
    this commits a 32p -> 256p -> 1024p -> 4096p series to
    ``BENCH_kernel.json``; the 1024p normalized rate staying within 4x
    of the 32p rate is the scaling acceptance criterion (per-message
    work must not grow linearly with the population).
    """
    cases = [
        ladder_case(
            f"mutable_{n}p_trace_off",
            f"{n}-process mutable-checkpoint run, tracing off, "
            f"fixed {max_events // 1000}k-event budget",
            max_events, n_processes=n,
        )
        for n in populations
    ]
    if 1024 in populations:
        # Sampler-on twin of the 1024p rung: its rate ratio against
        # mutable_1024p_trace_off is the telemetry sampling overhead
        # (acceptance: <= 3% events/s regression).
        cases.append(ladder_case(
            "mutable_1024p_timeseries_1s",
            "the 1024p rung with the timeseries sampler on "
            "(1 sim-second windows)",
            max_events, n_processes=1024, timeseries_window=1.0,
        ))
        # The only multi-cell rung: cross-cell traffic takes the wired
        # MSS -> MSS hop the single-cell rungs never enter.
        cases.append(ladder_case(
            "mutable_1024p_mss8",
            "the 1024p rung over 8 cells (wired backbone in the path)",
            max_events, n_processes=1024, n_mss=8,
        ))
        cases.append(_snapshot_roundtrip_case(1024))
    if 4096 in populations:
        # not a per-event rate: what the top rung costs before its first event
        cases.append(_build_case(4096))
    return cases


def default_cases() -> List[BenchCase]:
    """The standing kernel benchmark suite.

    The trace-on/trace-off pairs measure the leveled-tracing fast path:
    identical runs except for the trace level, so their rate ratio is
    the hot-path cost of message tracing. ``snapshot_overhead`` re-runs
    the 16p trace-off case with every-1000-events in-memory snapshots.
    """

    def mutable(n: int, initiations: int, trace: bool, description: str) -> BenchCase:
        return experiment_case(
            f"mutable_{n}p_trace_{'on' if trace else 'off'}",
            lambda: _mutable_p2p(initiations, n_processes=n, trace_messages=trace),
            description,
        )

    return [
        mutable(16, 12, False,
                "16-process mutable-checkpoint run, message tracing off (INFO)"),
        mutable(16, 12, True, "same run with full message tracing (DEBUG)"),
        mutable(32, 8, False, "32-process run, message tracing off"),
        mutable(32, 8, True, "32-process run with full message tracing (DEBUG)"),
        _message_alloc_case(),
        _snapshot_overhead_case(),
        _trace_codec_case(),
        _store_case(
            "store_jsonl_10k", "jsonl",
            "10k PointRecord appends (fsync each) + 10k hash lookups "
            "on the JSONL ResultStore",
        ),
        _store_case(
            "store_sqlite_10k", "sqlite",
            "10k PointRecord appends + 10k hash lookups on the "
            "SQLite ResultDB (WAL, synchronous=NORMAL)",
        ),
    ]


def run_bench_suite(
    cases: Optional[List[BenchCase]] = None,
    repeats: int = 3,
    burn: Optional[Callable[[], None]] = None,
    calibration_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the suite and return a JSON-safe report (best-of-``repeats``)."""
    if cases is None:
        cases = default_cases()
    measured: List[Tuple[str, int, float, float]] = []
    for case in cases:
        best_rate = 0.0
        best: Tuple[int, float] = (0, 0.0)
        for _ in range(repeats):
            events, seconds = case.run(burn)
            rate = events / seconds if seconds > 0 else 0.0
            if rate > best_rate:
                best_rate = rate
                best = (events, seconds)
        measured.append((case.name, best[0], best[1], best_rate))
    if calibration_rate is None:
        # Calibrate twice, bracketing the suite, and keep the faster
        # sample: a transiently loaded machine then under-reports the
        # yardstick (inflating normalized rates) at most briefly, and a
        # slow yardstick is the failure mode that fakes regressions.
        calibration_rate = max(calibrate(), calibrate())
    results = [
        BenchResult(
            name=name,
            events=events,
            seconds=seconds,
            rate=rate,
            normalized_rate=rate / calibration_rate,
        )
        for name, events, seconds, rate in measured
    ]
    return {
        "schema": 1,
        "calibration_rate": calibration_rate,
        "python": sys.version.split()[0],
        "results": [r.to_dict() for r in results],
    }


def _duplicate_rate_warnings(report: Dict[str, Any], label: str) -> List[str]:
    """Cases sharing a normalized rate to 15 significant digits.

    Independent timed measurements never collide at that precision; a
    collision means one entry was copy-pasted or written from a stale
    variable (this actually happened: the committed
    ``mutable_1024p_timeseries_1s`` baseline once carried
    ``mutable_1024p_trace_off``'s exact rate). Zero rates are skipped —
    placeholder entries may legitimately share 0.
    """
    groups: Dict[str, List[str]] = {}
    for result in report.get("results", []):
        rate = result.get("normalized_rate", 0.0)
        if not rate:
            continue
        groups.setdefault(f"{rate:.15e}", []).append(result["name"])
    return [
        f"{label}: {' and '.join(names)} share normalized_rate "
        f"{key} — copy artifact? re-measure with --write"
        for key, names in sorted(groups.items())
        if len(names) > 1
    ]


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    warnings: Optional[List[str]] = None,
) -> List[str]:
    """Regressions of ``current`` against ``baseline``.

    Returns one human-readable line per case whose normalized rate fell
    more than ``threshold`` below the baseline's; empty means clean.
    Cases present on only one side never fail (suites may grow), but a
    measured case with no committed baseline is noted in ``warnings``
    (a caller-provided list, appended in place) so new cases don't ride
    ungated forever — as are identical-to-15-digits normalized rates on
    either side, which can only be copy artifacts, never measurements.
    """
    base_by_name = {r["name"]: r for r in baseline.get("results", [])}
    failures: List[str] = []
    if warnings is not None:
        warnings.extend(_duplicate_rate_warnings(baseline, "baseline"))
        warnings.extend(_duplicate_rate_warnings(current, "measured"))
    for result in current.get("results", []):
        base = base_by_name.get(result["name"])
        if base is None:
            if warnings is not None:
                warnings.append(
                    f"{result['name']}: no baseline entry — not gated; "
                    "rerun with --write to commit one"
                )
            continue
        if base["normalized_rate"] <= 0:
            continue
        ratio = result["normalized_rate"] / base["normalized_rate"]
        if ratio < 1.0 - threshold:
            failures.append(
                f"{result['name']}: normalized rate {result['normalized_rate']:.4f} "
                f"is {(1.0 - ratio) * 100:.1f}% below baseline "
                f"{base['normalized_rate']:.4f} (threshold {threshold * 100:.0f}%)"
            )
    return failures


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    """Read a committed baseline; None if the file is missing/empty."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if data.get("results") else None


# -- bench history ---------------------------------------------------------
def append_history(
    path: str,
    report: Dict[str, Any],
    git_sha: Optional[str] = None,
    timestamp: Optional[float] = None,
    dirty: bool = False,
) -> Dict[str, Any]:
    """Append one run to the bench history (JSONL); returns the record.

    Records carry only *normalized* rates, so a history accumulated
    across different machines still traces one comparable trajectory
    per case — the raw calibration rate rides along for context.
    ``dirty`` says the tree had uncommitted changes, so ``git_sha`` is
    the parent of the code that ran (rows written before the field
    existed lack it; read it with ``.get``).
    """
    record = {
        "schema": 1,
        "timestamp": time.time() if timestamp is None else timestamp,
        "git_sha": git_sha or "unknown",
        "dirty": dirty,
        "python": report.get("python"),
        "calibration_rate": report.get("calibration_rate"),
        "normalized_rates": {
            r["name"]: r["normalized_rate"]
            for r in report.get("results", [])
        },
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path: str) -> List[Dict[str, Any]]:
    """All history records in append order; [] if missing. Skips any
    line that does not parse (a crashed append leaves a partial line)."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records


def format_trends(history: List[Dict[str, Any]], width: int = 32) -> str:
    """Per-case normalized-rate trajectories, one sparkline per case."""
    from repro.analysis.ascii_chart import sparkline

    names = sorted(
        {name for rec in history for name in rec.get("normalized_rates", {})}
    )
    if not names:
        return "(no history)"
    lines = []
    for name in names:
        series = [
            rec["normalized_rates"][name]
            for rec in history
            if name in rec.get("normalized_rates", {})
        ]
        delta = (
            (series[-1] / series[0] - 1.0) * 100.0 if series[0] > 0 else 0.0
        )
        lines.append(
            f"{name:28s} {sparkline(series, width=width):{min(width, 32)}s} "
            f"{series[-1]:.5f} ({delta:+.1f}% over {len(series)} runs)"
        )
    return "\n".join(lines)
