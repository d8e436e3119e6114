"""Kernel benchmark: events/s per case, judged against the parent commit.

Usage::

    python benchmarks/bench_kernel.py              # HEAD's rates
    python benchmarks/bench_kernel.py --write      # record them in BENCH_kernel.json
    python benchmarks/bench_kernel.py --check      # pair each case with the parent
    python benchmarks/bench_kernel.py --ladder     # add the population ladder

Every run of a case is a fresh interpreter that runs *this file's* case
definition with one side's ``src`` first on ``PYTHONPATH``; a case's
rate is the median of ``--repeats`` runs (default 3, and 5 pairs with
``--check``). The ladder adds
the fixed-budget rungs ``mutable_{256,1024,4096}p_trace_off``, the
sampler-on ``mutable_1024p_timeseries_1s`` twin, the 8-cell
``mutable_1024p_mss8``, the 1024p snapshot round trip and the 4096p
build; the default suite's ``mutable_32p_trace_off`` is the 32p rung.
Three ratios are printed from HEAD's medians: trace off vs on, the
1024p vs 32p per-event cost (must stay under 4x) and the 1024p
timeseries sampling overhead (acceptance: <= 3%).

How ``--check`` judges (CI's perf-smoke and scale-smoke jobs run it):

* **The parent.** ``HEAD`` when ``git status --porcelain -- src
  benchmarks`` is non-empty (the uncommitted change is measured against
  its base), else ``HEAD^`` (on a pull request's merge commit, the base
  tip). It is checked out with ``git worktree add --detach`` into a
  temporary directory, removed when the check ends.
* **Pairs.** Each case runs ``--repeats`` parent/HEAD pairs on the same
  host, so a slow runner slows both sides alike; the side that runs
  first alternates from pair to pair.
* **The verdict** (:func:`judge`). A case fails when HEAD's median rate
  is more than ``TOLERANCE`` (25 %) below the parent's median *and*
  below the parent's lower quartile: a drop inside the parent's own
  spread is noise.
* **New cases.** A case the parent cannot run (a new case, or one that
  uses an API the parent lacks) prints ``not gated`` and does not fail.
* **HEAD errors.** A HEAD run that raises fails the check.
* **No parent.** No git, no parent commit or a worktree error exits 2.
  It never passes: a shallow CI checkout needs ``fetch-depth: 2``.
* **Imports.** Each child reports the ``repro`` it imported, and a run
  whose ``repro`` is not under its side's ``src`` is an error (exit 2),
  never a measurement of HEAD twice. That is why this file puts its own
  ``../src`` on ``sys.path`` only when run as a script.

``BENCH_kernel.json`` is a record of raw median rates on one host
(``--write`` stamps the Python version, platform and CPU count); no gate
reads it. The check appends nothing to ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RECORD_PATH = os.path.join(ROOT, "BENCH_kernel.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.campaign.engine import build_point_runtime  # noqa: E402
from repro.campaign.spec import RunPoint  # noqa: E402
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.core.system import MobileSystem  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.net.message import ComputationMessage  # noqa: E402

#: how far HEAD's median rate may fall under the parent's before the
#: case can fail (it must also fall under the parent's lower quartile)
TOLERANCE = 0.25

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
    25% gate keeps both the hook and the pickle path honest.
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


#: what one ``cold_import_cli`` interpreter runs: time the CLI's import
_COLD_IMPORT = """
import time
start = time.perf_counter()
import repro.cli
print(time.perf_counter() - start)
"""


def _cold_import_case(imports: int = 8) -> BenchCase:
    """``import repro.cli`` in ``imports`` fresh interpreters, each timed
    from inside: what every CLI call, campaign worker and service job
    pays before its first event. A fresh interpreter compiles from source
    whatever has no bytecode cache, so the rate falls with every module
    the import drags in. "Events" are imports."""

    def run(burn: Burn = None) -> Tuple[int, float]:
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        elapsed = 0.0
        for _ in range(imports):
            start = time.perf_counter()
            if burn is not None:
                burn()
            elapsed += time.perf_counter() - start
            child = subprocess.run(
                [sys.executable, "-c", _COLD_IMPORT],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, text=True, check=True,
            )
            elapsed += float(child.stdout)
        return imports, elapsed

    return BenchCase(
        "cold_import_cli", run,
        f"import repro.cli in {imports} fresh interpreters (imports/s)",
    )


def _run_to_budget(
    system: MobileSystem, runner: ExperimentRunner, max_events: int
) -> None:
    """Run until the runner finishes or ``max_events`` are spent. Only
    the budget stops a measurement: any other ``SimulationError``
    propagates and fails the run."""
    try:
        runner.run(max_events=max_events)
    except SimulationError:
        if system.sim.events_processed < max_events:
            raise


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
        system, runner = _mutable_p2p(2, trace_messages=False, **system_params)
        system.sim.set_burn(burn)
        start = time.perf_counter()
        _run_to_budget(system, runner, max_events)
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
        from repro.snapshot import Snapshotter, resume_run

        system, runner = _mutable_p2p(
            2, trace_messages=False, n_processes=n, n_mss=8
        )
        _run_to_budget(system, runner, 10_000)  # the state to snapshot
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
    """Building the ``n``-process 8-cell system three times, nothing run:
    "events" are builds. What a build allocates per process is what it
    costs. One 4096p build is ~0.1 s, a window a short host phase can
    fill; three keep each run's rate from resting on one phase."""

    def run(burn: Burn = None) -> Tuple[int, float]:
        builds, elapsed = 3, 0.0
        for _ in range(builds):
            gc.collect()  # the previous build's system, not this build's bill
            start = time.perf_counter()
            if burn is not None:
                for _ in range(n):
                    burn()
            _mutable_p2p(2, trace_messages=False, n_processes=n, n_mss=8)
            elapsed += time.perf_counter() - start
        return builds, elapsed

    return BenchCase(
        f"build_{n}p", run, f"build the {n}p 8-cell system (no events)"
    )


def ladder_cases(
    populations: Tuple[int, ...] = (256, 1024, 4096), max_events: int = 150_000
) -> List[BenchCase]:
    """The population ladder: per-event rates at growing system sizes.

    Together with the default suite's ``mutable_32p_trace_off`` rung
    this measures a 32p -> 256p -> 1024p -> 4096p series; the 1024p
    rate staying within 4x of the 32p rate is the scaling acceptance
    criterion (per-message
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
        _cold_import_case(),
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


# -- measuring -------------------------------------------------------------
class CaseError(Exception):
    """A case run that raised; its message is the run's last error line."""


class GateError(Exception):
    """The check cannot be judged (exit 2): no parent, or a wrong import."""


#: what a child interpreter runs: load this file by path (so it never
#: puts its own ``src`` on ``sys.path``), run one case, print one line
_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_kernel", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
sys.modules["bench_kernel"] = bench
spec.loader.exec_module(bench)
print(json.dumps(bench.run_named(sys.argv[2])))
"""


def run_named(name: str) -> Dict[str, Any]:
    """One run of case ``name`` in this interpreter, with the ``repro`` it used."""
    import repro

    (case,) = [c for c in default_cases() + ladder_cases() if c.name == name]
    events, seconds = case.run()
    return {"events": events, "seconds": seconds, "repro": repro.__file__}


def child_run(src: str, name: str) -> Tuple[int, float]:
    """One run of case ``name`` in a fresh interpreter importing ``src``'s
    ``repro``: ``(events, seconds)``, or :class:`CaseError` if it raised."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.abspath(__file__), name],
        env=dict(os.environ, PYTHONPATH=src), cwd=src,
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        raise CaseError(lines[-1])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src, imported = os.path.realpath(src), os.path.realpath(out["repro"])
    if os.path.commonpath([src, imported]) != src:
        raise GateError(f"{name}: the run meant for {src} imported {imported}")
    return out["events"], out["seconds"]


def paired_rates(
    head_run: Callable[[], Tuple[int, float]],
    parent_run: Optional[Callable[[], Tuple[int, float]]] = None,
    repeats: int = 3,
) -> Tuple[List[float], Optional[List[float]]]:
    """``repeats`` parent/HEAD pairs of runs of one case, as events/s.

    The side that runs first alternates from pair to pair, so a host
    that speeds up or slows down during the case shifts both sides
    alike. The parent's list is None without a ``parent_run`` or once it
    raises :class:`CaseError` (the parent cannot run the case); a HEAD
    error propagates.
    """
    head: List[float] = []
    parent: Optional[List[float]] = None if parent_run is None else []
    for i in range(repeats):
        for side in ("parent", "head") if i % 2 == 0 else ("head", "parent"):
            if side == "head":
                head.append(_rate(*head_run()))
            elif parent is not None:
                try:
                    parent.append(_rate(*parent_run()))
                except CaseError:
                    parent = None
    return head, parent


def _rate(events: int, seconds: float) -> float:
    return events / seconds if seconds > 0 else 0.0


def judge(head: List[float], parent: Optional[List[float]]) -> str:
    """``"ok"``, ``"REGRESSION"`` or ``"not gated"`` (no parent rates).

    A regression is a HEAD median more than :data:`TOLERANCE` below the
    parent's median and below the parent's lower quartile.
    """
    if not parent:
        return "not gated"
    base = statistics.median(parent)
    low = statistics.quantiles(parent, n=4)[0] if len(parent) > 1 else base
    now = statistics.median(head)
    return "REGRESSION" if now < base * (1.0 - TOLERANCE) and now < low else "ok"


# -- the parent commit -----------------------------------------------------
def _git(root: str, *command: str) -> str:
    """Stripped stdout of ``git -C root <command>``; GateError if it failed."""
    try:
        out = subprocess.run(
            ["git", "-C", root, *command],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise GateError(f"git {command[0]}: {exc}") from None
    if out.returncode != 0:
        raise GateError(f"git {' '.join(command)}: {out.stderr.strip()}")
    return out.stdout.strip()


def resolve_parent(root: str) -> str:
    """The sha ``--check`` measures against: ``HEAD`` under an uncommitted
    change to ``src`` or ``benchmarks``, else ``HEAD^``."""
    dirty = _git(root, "status", "--porcelain", "--", "src", "benchmarks")
    try:
        return _git(root, "rev-parse", "--verify", "HEAD" if dirty else "HEAD^")
    except GateError as exc:
        raise GateError(
            f"{exc}: no parent commit to measure against (a shallow CI "
            "checkout needs fetch-depth: 2)"
        ) from None


@contextlib.contextmanager
def parent_src(root: str) -> Iterator[str]:
    """The parent commit's ``src``, checked out in a temporary worktree."""
    sha = resolve_parent(root)
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    path = os.path.join(tmp, "parent")
    try:
        _git(root, "worktree", "add", "--detach", path, sha)
        print(f"parent {sha[:12]} checked out in {path}", flush=True)
        yield os.path.join(path, "src")
    finally:
        if os.path.isdir(path):
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force",
                            path], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


# -- the script ------------------------------------------------------------
def _measure(
    cases: List[BenchCase], repeats: int, parent: Optional[str]
) -> Tuple[Dict[str, float], List[str]]:
    """HEAD's median rate per case, and the cases that fail the check."""
    head_src = os.path.join(ROOT, "src")
    medians: Dict[str, float] = {}
    failures: List[str] = []
    for case in cases:
        parent_run = None if parent is None else partial(child_run, parent, case.name)
        try:
            head, base = paired_rates(
                partial(child_run, head_src, case.name), parent_run, repeats
            )
        except CaseError as exc:
            print(f"{case.name:28s} HEAD error: {exc}", flush=True)
            failures.append(case.name)
            continue
        medians[case.name] = statistics.median(head)
        line = f"{case.name:28s} {medians[case.name]:10.0f} ev/s"
        if parent is not None:
            verdict = judge(head, base)
            if base:
                ratio = medians[case.name] / statistics.median(base)
                line += f"  parent {statistics.median(base):10.0f}  {ratio:5.2f}x"
            line += f"  {verdict}"
            if verdict == "REGRESSION":
                failures.append(case.name)
                line += "  runs: HEAD " + " ".join(f"{r:.0f}" for r in head)
                line += ", parent " + " ".join(f"{r:.0f}" for r in base)
        print(line, flush=True)
    return medians, failures


def _print_ratios(rates: Dict[str, float]) -> None:
    off = rates.get("mutable_16p_trace_off")
    on = rates.get("mutable_16p_trace_on")
    if off and on:
        print(f"trace-off speedup over trace-on: {off / on:.2f}x")
    small = rates.get("mutable_32p_trace_off")
    large = rates.get("mutable_1024p_trace_off")
    if small and large:
        print(
            "1024p per-event cost vs 32p: "
            f"{small / large:.2f}x (acceptance: < 4x)"
        )
    sampled = rates.get("mutable_1024p_timeseries_1s")
    if large and sampled:
        print(
            "1024p timeseries sampling overhead: "
            f"{(1.0 - sampled / large) * 100:.1f}% (acceptance: <= 3%)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="pair every case with the parent commit; exit 1 "
                        "on a regression, 2 when there is no parent")
    parser.add_argument("--write", action="store_true",
                        help="record HEAD's median rates in BENCH_kernel.json")
    parser.add_argument("--ladder", action="store_true",
                        help="add the 256p/1024p/4096p population rungs")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per case and side; medians are compared "
                        "(default 3, or 5 with --check)")
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 5 if args.check else 3

    cases = default_cases() + (ladder_cases() if args.ladder else [])
    try:
        if args.check:
            with parent_src(ROOT) as parent:
                medians, failures = _measure(cases, args.repeats, parent)
        else:
            medians, failures = _measure(cases, args.repeats, None)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_ratios(medians)

    if args.write and not failures:
        record = {
            "schema": 2,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "repeats": args.repeats,
            "rates": medians,
        }
        with open(RECORD_PATH, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"median rates written to {RECORD_PATH}")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    if args.check:
        print(f"no regression against the parent (threshold "
              f"{TOLERANCE * 100:.0f}%, outside the parent's quartile)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
