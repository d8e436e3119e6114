"""Campaign engine: fan run points out over a worker pool.

Workers receive only the picklable :class:`RunPoint` dict and rebuild
the full :class:`~repro.core.system.MobileSystem` from it, so every
point is hermetic: its result depends only on its own spec (including
its content-derived seed), never on which worker ran it or in what
order. That is what makes ``workers=N`` bit-identical to ``workers=1``.

Failure policy: a crashing point is recorded in the store as ``failed``
and retried exactly once; a second failure stays in the store (with the
error and traceback) and the campaign carries on — one pathological
point cannot sink a thousand-point sweep. Completed points found in the
store are skipped, which is the resume path after a crash or Ctrl-C.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.campaign.cache import spec_hash
from repro.campaign.spec import WORKLOAD_KINDS, CampaignSpec, RunPoint, preset_spec
from repro.checkpointing.protocol import CheckpointProtocol
from repro.core.config import RunConfig, SystemConfig
from repro.core.registry import build_protocol
from repro.core.results import RunResult
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.obs.registry import MetricsRegistry
from repro.sim.trace import TraceLevel
from repro.workload.base import Workload

if TYPE_CHECKING:  # pragma: no cover - a single point needs neither
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.store import PointRecord, ResultStore


def build_point_system(
    point: RunPoint, protocol: Optional[CheckpointProtocol] = None
) -> MobileSystem:
    """The bare system of a point, for callers that drive it by hand.

    An :class:`ExperimentRunner` hooks the protocol's commit listeners
    and re-arms initiation timers from the moment it is built, so
    scripted scenarios (scheduled output commits, timer-based rounds)
    take the system without one.
    """
    if protocol is None:
        protocol = build_protocol(point.protocol, **point.protocol_params)
    config = SystemConfig.from_params(point.system_params, seed=point.seed)
    return MobileSystem(config, protocol)


def build_point_runtime(
    point: RunPoint, protocol: Optional[CheckpointProtocol] = None
) -> Tuple[MobileSystem, Workload, ExperimentRunner]:
    """Rebuild system + workload + runner from a point's plain-data spec.

    The only place a run is assembled: the CLI, the report, the
    explorer, the benches and the campaign workers all come through
    here. ``protocol`` overrides the registry lookup with an
    already-built instance — the in-process escape hatch for protocol
    variants that only exist as constructor arguments (bench ablations,
    planted mutations).
    """
    system = build_point_system(point, protocol)
    workload_config_cls, workload_cls = WORKLOAD_KINDS[point.workload]
    workload = workload_cls(system, workload_config_cls(**point.workload_params))
    runner = ExperimentRunner(system, workload, RunConfig(**point.run_params))
    return system, workload, runner


def run_point(
    point: RunPoint, protocol: Optional[CheckpointProtocol] = None
) -> RunResult:
    """Execute one point in-process and return its :class:`RunResult`."""
    _, _, runner = build_point_runtime(point, protocol=protocol)
    return runner.run(max_events=point.max_events)


#: wall time between two snapshots of one point: a point shorter than
#: this writes none, a kill -9 loses at most about this much work
SNAPSHOT_WALL_SECONDS = 10.0


def execute_point(
    payload: Dict[str, Any],
    trace_dir: Optional[str] = None,
    snapshot_dir: Optional[str] = None,
    snapshot_keep: Optional[int] = 2,
) -> Dict[str, Any]:
    """Worker entry point: run one point dict, never raise.

    Module-level so it pickles into :mod:`multiprocessing` workers (bind
    ``trace_dir`` with :func:`functools.partial`, which pickles too). The
    returned dict is a :class:`PointRecord` minus the ``attempts`` field,
    which only the engine knows.

    With ``trace_dir`` set, the run records messages regardless of the
    point's ``trace_messages`` setting and its full trace is saved to
    ``<trace_dir>/<point_hash>.jsonl`` (the record's ``meta`` carries the
    path). The trace file is a side output: the record itself is
    identical either way, so cached and traced runs stay comparable.

    With ``snapshot_dir`` set, the run snapshots itself into
    ``<snapshot_dir>/<point_hash>/`` once per
    :data:`SNAPSHOT_WALL_SECONDS` of wall time (a point shorter than
    that writes nothing), and — the crash-resume path — a point whose
    directory already holds a snapshot *continues from it* instead of
    starting over. Resume is exact (the simulation is deterministic and
    snapshots capture it whole), so an interrupted-and-resumed point's
    result is bit-identical to an uninterrupted one and the record's
    ``meta`` (``snapshot_dir``, ``resumed_from``, ``snapshots_taken`` —
    the count this execution wrote — and ``snapshots``, the paths kept)
    is the only visible difference.
    """
    started = time.perf_counter()
    point_dict = dict(payload)
    point_hash = spec_hash(point_dict)
    try:
        point = RunPoint.from_dict(point_dict)
        meta: Dict[str, Any] = {}
        point_snap_dir = None
        resume_from = None
        taken_before = 0
        if snapshot_dir is not None:
            from repro.snapshot import SnapshotStore

            point_snap_dir = os.path.join(snapshot_dir, point_hash)
            resume_from = SnapshotStore(point_snap_dir).latest()
        if resume_from is not None:
            from repro.snapshot import resume_run

            image = resume_run(resume_from.path)
            system, runner = image.system, image.runner
            if trace_dir is not None:
                system.sim.trace.set_level(TraceLevel.DEBUG)
            meta["resumed_from"] = resume_from.path
            snapshotter = image.snapshotter
            if snapshotter is not None:
                taken_before = snapshotter.seq
            result = runner.resume(max_events=point.max_events)
        else:
            system, _, runner = build_point_runtime(point)
            if trace_dir is not None:
                # The trace level is fixed at build time, so raise it on
                # the live log (mutating config after build won't stick).
                system.sim.trace.set_level(TraceLevel.DEBUG)
            snapshotter = None
            if point_snap_dir is not None:
                from repro.snapshot import SnapshotPolicy, Snapshotter

                snapshotter = Snapshotter(
                    runner,
                    SnapshotPolicy(
                        wallclock_seconds=SNAPSHOT_WALL_SECONDS, keep=snapshot_keep
                    ),
                    point_snap_dir,
                    label=point_hash,
                )
                snapshotter.install()
            result = runner.run(max_events=point.max_events)
        if point_snap_dir is not None:
            meta["snapshot_dir"] = point_snap_dir
            if snapshotter is not None:
                meta["snapshots_taken"] = snapshotter.seq - taken_before
                if snapshotter.taken:
                    meta["snapshots"] = list(snapshotter.taken)
        record = {
            "point_hash": point_hash,
            "status": "ok",
            "point": point.to_dict(),
            "result": result.to_dict(),
            "wall_time": time.perf_counter() - started,
        }
        if trace_dir is not None:
            from repro.sim.export import save_trace

            os.makedirs(trace_dir, exist_ok=True)
            path = os.path.join(trace_dir, f"{point_hash}.jsonl")
            count = save_trace(system.sim.trace, path)
            meta.update({"trace_path": path, "trace_records": count})
        if meta:
            record["meta"] = meta
        return record
    except Exception as exc:  # noqa: BLE001 — failures become records
        return {
            "point_hash": point_hash,
            "status": "failed",
            "point": point_dict,
            "error": f"{type(exc).__name__}: {exc}",
            "meta": {"traceback": traceback.format_exc()},
            "wall_time": time.perf_counter() - started,
        }


@dataclass
class CampaignReport:
    """What a campaign run did, with records in spec (grid) order."""

    name: str
    points: List[RunPoint] = field(default_factory=list)
    records: List[PointRecord] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    wall_time: float = 0.0
    #: True when a ``should_stop`` callback ended the run early; the
    #: report then covers only the points that finished (still in grid
    #: order), and ``total`` counts only those.
    cancelled: bool = False
    #: the records this run executed (completion order), not those it
    #: found in the store
    fresh: List[PointRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def failed(self) -> List[PointRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def results(self) -> List[RunResult]:
        """Rehydrated results of the successful points, in grid order."""
        return [r.run_result() for r in self.records if r.ok]

    def merged_metrics(self) -> MetricsRegistry:
        """Campaign-level aggregate of every successful point's metrics.

        Snapshots are merged **in grid order**, never completion order,
        and metric merge is associative — together these make the
        aggregate independent of the worker count (``workers=N`` folds
        to the same registry as ``workers=1``).
        """
        return MetricsRegistry.merged(
            result.metrics for result in self.results() if result.metrics
        )

    def merged_timeseries(self) -> Dict[str, Any]:
        """Campaign-level windowed telemetry, merged in grid order.

        Rows align on ``(dt, w)`` and deltas add (see
        :func:`repro.obs.timeseries.merge_timeseries`), so like
        :meth:`merged_metrics` the result is independent of worker
        count. ``{}`` when no point sampled a timeseries.
        """
        from repro.obs.timeseries import merge_timeseries

        return merge_timeseries(result.timeseries for result in self.results())

    def rows(self) -> List[Dict[str, Any]]:
        """One flat dict per point: identity + the paper's metrics."""
        rows = []
        for point, record in zip(self.points, self.records):
            row: Dict[str, Any] = {
                "hash": record.point_hash,
                "label": point.label(),
                "status": record.status,
                "wall_time": round(record.wall_time, 3),
            }
            if record.ok:
                row.update(record.run_result().paper_row())
            else:
                row["error"] = record.error
            rows.append(row)
        return rows


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    # fork is cheapest and fully deterministic here (workers rebuild all
    # state from the point spec); spawn is the portable fallback.
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class CampaignEngine:
    """Expand a spec, skip completed points, fan the rest out, persist."""

    def __init__(
        self,
        spec: Union[CampaignSpec, Sequence[RunPoint]],
        store: Optional[ResultStore] = None,
        workers: int = 1,
        progress: Optional[ProgressReporter] = None,
        quiet: bool = True,
        executor: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        snapshot_dir: Optional[str] = None,
        pool: Optional[Any] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        if isinstance(spec, CampaignSpec):
            self.name = spec.name
            self.points = spec.expand()
        else:
            self.name = "adhoc"
            self.points = list(spec)
        if workers < 1:
            raise ValueError("need at least one worker")
        from repro.campaign.progress import ProgressReporter
        from repro.campaign.store import ResultStore

        self.store = store if store is not None else ResultStore()
        self.workers = workers
        # A payload -> record callable; must pickle for worker pools
        # (module-level function or functools.partial of one). This is
        # how repro.explore reuses the engine with its own run shape.
        if executor is None:
            if snapshot_dir is not None:
                # Crash-safe campaigns: points snapshot while running and
                # in-progress points found on disk resume mid-run instead
                # of restarting (completed points are skipped as before).
                executor = functools.partial(execute_point, snapshot_dir=snapshot_dir)
            else:
                executor = execute_point
        elif snapshot_dir is not None:
            raise ValueError("snapshot_dir requires the default executor")
        self.executor = executor
        # An externally owned multiprocessing pool: the campaign service
        # keeps one pool alive across many jobs so workers fork once,
        # not once per submission. The engine never closes it.
        self.pool = pool
        # Cooperative cancellation: checked after each completed point;
        # when it returns True the engine stops dispatching, records
        # nothing further, and returns a partial (cancelled) report.
        self.should_stop = should_stop
        self.progress = progress or ProgressReporter(
            total=len(self.points), workers=workers, enabled=not quiet
        )

    def run(self) -> CampaignReport:
        """Run every point not already in the store; return the report."""
        completed = self.store.completed_hashes()
        pending = [p for p in self.points if p.point_hash not in completed]
        self.progress.total = len(self.points)
        self.progress.start(skipped=len(self.points) - len(pending))

        outcomes: Dict[str, PointRecord] = {}
        labels = {p.point_hash: p.label() for p in self.points}
        cancelled = self.should_stop is not None and self.should_stop()
        if not cancelled:
            for raw in self._execute(pending):
                record = self._record_outcome(raw, attempts=1)
                if not record.ok:
                    record = self._retry(record)
                outcomes[record.point_hash] = record
                self.progress.point_done(
                    labels.get(record.point_hash, record.point_hash),
                    record.ok,
                    record.wall_time,
                )
                if self.should_stop is not None and self.should_stop():
                    # Between-points cancellation: everything recorded so
                    # far is durable; unstarted points simply never ran.
                    cancelled = True
                    break
        wall_time = self.progress.finish()

        report = CampaignReport(
            name=self.name,
            executed=len(outcomes) if cancelled else len(pending),
            skipped=len(self.points) - len(pending),
            wall_time=wall_time,
            cancelled=cancelled,
            fresh=list(outcomes.values()),
        )
        for point in self.points:
            record = outcomes.get(point.point_hash) or self.store.get(
                point.point_hash
            )
            if record is None:
                # Only possible on cancellation; a completed run has a
                # record (fresh or resumed) for every point.
                assert cancelled, f"point {point.point_hash} vanished"
                continue
            report.points.append(point)
            report.records.append(record)
        return report

    # -- internals -------------------------------------------------------
    def _execute(self, pending: List[RunPoint]):
        payloads = [p.to_dict() for p in pending]
        if self.pool is not None and len(pending) > 1:
            # Shared, caller-owned pool (the service): dispatch through
            # it and leave its lifecycle alone. An abandoned iterator
            # (cancellation) may leave queued tasks computing; the owner
            # decides whether to terminate or let them drain.
            for raw in self.pool.imap_unordered(
                self.executor, payloads, chunksize=1
            ):
                yield raw
            return
        if self.workers == 1 or len(pending) <= 1:
            for payload in payloads:
                yield self.executor(payload)
            return
        ctx = _pool_context()
        with ctx.Pool(processes=min(self.workers, len(pending))) as pool:
            # Unordered: progress reflects real completion; determinism
            # is unaffected because the report reassembles in grid order.
            for raw in pool.imap_unordered(self.executor, payloads, chunksize=1):
                yield raw

    def _record_outcome(self, raw: Dict[str, Any], attempts: int) -> PointRecord:
        from repro.campaign.store import PointRecord

        record = PointRecord.from_dict({**raw, "attempts": attempts})
        self.store.append(record)
        return record

    def _retry(self, failed: PointRecord) -> PointRecord:
        """Re-run a failed point once, in-process, recording the outcome."""
        raw = self.executor(failed.point)
        record = self._record_outcome(raw, attempts=failed.attempts + 1)
        record.wall_time += failed.wall_time
        return record


def run_preset(
    name: str, max_initiations: Optional[int] = None, workers: int = 1
) -> CampaignReport:
    """Run a paper experiment from the preset catalogue, in memory.

    How ``repro-sim table1``, the report, the figure benches and the
    examples get their numbers: the same points ``repro-sim campaign
    --preset`` runs, so they all agree. Raises if any point failed, so
    ``report.points`` and ``report.results()`` line up one to one.
    """
    report = CampaignEngine(preset_spec(name, max_initiations), workers=workers).run()
    for record in report.failed:
        raise RuntimeError(f"{name} point {record.point_hash} failed: {record.error}")
    return report
