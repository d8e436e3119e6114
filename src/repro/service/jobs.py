"""Async job manager: a submission queue over the campaign engine.

A *job* is one submitted grid. The manager partitions it against the
global result cache at submission time (hits are answered immediately
and never queued), then a single runner thread drains the queue job by
job through :class:`~repro.campaign.engine.CampaignEngine` — against
the shared :class:`~repro.service.db.ResultDB` and, for ``workers > 1``,
a single long-lived multiprocessing pool reused across jobs.

Crash durability is layered:

* every finished **point** is committed to the database before the next
  one starts (the engine's normal store discipline);
* every **job** is persisted (id, points, status) in a ``jobs`` table in
  the same database, so a killed service finds its queued and running
  jobs on restart and re-enqueues them — completed points are skipped
  via the store, and the **in-progress point** resumes mid-run from its
  ``.rsnap`` snapshot instead of restarting (a point snapshots at most
  once per ``SNAPSHOT_WALL_SECONDS`` of wall time, so one shorter than
  that simply reruns);
* results are deterministic, so an interrupted-and-resumed job's
  records are bit-identical to an uninterrupted run's.

:class:`CampaignService` is the facade the HTTP server and tests use:
one data directory wiring db + cache + manager + metrics together.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.campaign.engine import CampaignEngine, CampaignReport
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec, RunPoint
from repro.obs.registry import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.db import ResultDB

#: job states; queued/running are "live" (re-enqueued after a crash)
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)
_LIVE = (QUEUED, RUNNING)
_TERMINAL = (DONE, FAILED, CANCELLED)


class _LineBuffer(io.TextIOBase):
    """A writable stream keeping the most recent progress lines.

    :class:`ProgressReporter` prints one line per finished point; a
    long-lived service cannot keep them all, so status endpoints stream
    the tail of a bounded deque.
    """

    def __init__(self, capacity: int = 50) -> None:
        self.lines: deque = deque(maxlen=capacity)
        self._partial = ""
        self._lock = threading.Lock()

    def write(self, text: str) -> int:
        with self._lock:
            self._partial += text
            while "\n" in self._partial:
                line, self._partial = self._partial.split("\n", 1)
                self.lines.append(line)
        return len(text)

    def tail(self, n: int = 20) -> List[str]:
        with self._lock:
            return list(self.lines)[-n:]


class Job:
    """One submitted grid and its lifecycle state."""

    def __init__(self, job_id: str, name: str, points: List[RunPoint]) -> None:
        self.job_id = job_id
        self.name = name
        self.points = points
        self.status = QUEUED
        self.error: Optional[str] = None
        self.cache_hits = 0
        self.queued = len(points)
        self.executed = 0
        self.failed_points = 0
        self.wall_time = 0.0
        self.resumed = False
        self.submitted_at = time.time()
        self.log = _LineBuffer()
        self.progress = ProgressReporter(
            total=len(points), stream=self.log, enabled=True
        )
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()

    @property
    def finished(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe status view (what ``GET /status/<id>`` returns)."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "status": self.status,
            "total": len(self.points),
            "done": self.progress.done,
            "cache_hits": self.cache_hits,
            "queued": self.queued,
            "executed": self.executed,
            "failed_points": self.failed_points,
            "eta_seconds": round(self.progress.eta_seconds(), 3),
            "wall_time": round(self.wall_time, 3),
            "resumed": self.resumed,
            "error": self.error,
            "progress": self.log.tail(),
        }


class JobManager:
    """Background queue draining submitted jobs through the engine.

    ``snapshot_every`` is accepted and ignored: a point snapshots once
    per ``SNAPSHOT_WALL_SECONDS`` of wall time, whatever its event count.
    It stays readable as an attribute for callers that still report it.
    """

    def __init__(
        self,
        db: ResultDB,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 1,
        snapshot_dir: Optional[str] = None,
        snapshot_every: int = 2000,
    ) -> None:
        self.db = db
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else ResultCache(
            db, metrics=self.metrics
        )
        self.workers = max(1, workers)
        self.snapshot_dir = snapshot_dir
        self.snapshot_every = snapshot_every
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: deque = deque()
        self._seq = 0
        self._lock = threading.RLock()
        self._wake = threading.Event()
        # notified when a job ends and at shutdown: what long-polls wait on
        self._changed = threading.Condition()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._pool = None
        # The jobs table lives in the results database file; a separate
        # connection keeps ResultDB strictly about PointRecords. With
        # an in-memory ResultDB there is nothing durable to attach to,
        # so job state is process-local (tests, ephemeral services).
        self._jobs_conn: Optional[sqlite3.Connection] = None
        if db.path is not None:
            self._jobs_conn = sqlite3.connect(db.path, check_same_thread=False)
            self._jobs_conn.execute("PRAGMA journal_mode=WAL")
            self._jobs_conn.execute("PRAGMA synchronous=NORMAL")
            with self._jobs_conn:
                self._jobs_conn.execute(
                    "CREATE TABLE IF NOT EXISTS jobs ("
                    " job_id TEXT PRIMARY KEY,"
                    " seq INTEGER NOT NULL,"
                    " name TEXT NOT NULL,"
                    " status TEXT NOT NULL,"
                    " error TEXT,"
                    " cache_hits INTEGER NOT NULL DEFAULT 0,"
                    " points TEXT NOT NULL)"
                )

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "JobManager":
        """Recover persisted jobs, then start the runner thread."""
        self._recover()
        if self.workers > 1:
            # Fork the shared pool before any other threads exist (the
            # HTTP server starts after the manager) — one fork, reused
            # by every job until shutdown or a cancellation terminates
            # it (it is then lazily recreated).
            self._pool = self._make_pool()
        self._thread = threading.Thread(
            target=self._run_loop, name="job-runner", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop after the current point; queued jobs stay persisted."""
        self._stopping = True
        self._wake.set()
        self.wake()
        if self._thread is not None and wait:
            self._thread.join(timeout=timeout)
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._jobs_conn is not None:
            self._jobs_conn.close()
            self._jobs_conn = None

    def _make_pool(self):
        from repro.campaign.engine import _pool_context

        return _pool_context().Pool(processes=self.workers)

    # -- persistence -----------------------------------------------------
    def _persist(self, job: Job, seq: int) -> None:
        if self._jobs_conn is None:
            return
        with self._lock:
            with self._jobs_conn:
                self._jobs_conn.execute(
                    "INSERT INTO jobs "
                    "(job_id, seq, name, status, error, cache_hits, points) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(job_id) DO UPDATE SET "
                    "status=excluded.status, error=excluded.error, "
                    "cache_hits=excluded.cache_hits",
                    (
                        job.job_id,
                        seq,
                        job.name,
                        job.status,
                        job.error,
                        job.cache_hits,
                        json.dumps([p.to_dict() for p in job.points]),
                    ),
                )

    def _update_status(self, job: Job) -> None:
        if self._jobs_conn is None:
            return
        with self._lock:
            with self._jobs_conn:
                self._jobs_conn.execute(
                    "UPDATE jobs SET status=?, error=?, cache_hits=? "
                    "WHERE job_id=?",
                    (job.status, job.error, job.cache_hits, job.job_id),
                )

    def _recover(self) -> None:
        """Reload persisted jobs; live ones are re-enqueued in order."""
        if self._jobs_conn is None:
            return
        rows = self._jobs_conn.execute(
            "SELECT job_id, seq, name, status, error, cache_hits, points "
            "FROM jobs ORDER BY seq"
        ).fetchall()
        for job_id, seq, name, status, error, cache_hits, points_json in rows:
            points = [RunPoint.from_dict(d) for d in json.loads(points_json)]
            job = Job(job_id, name, points)
            job.error = error
            job.cache_hits = int(cache_hits)
            distinct = len({point.point_hash for point in points})
            job.queued = max(0, distinct - job.cache_hits)
            self._seq = max(self._seq, int(seq))
            self.jobs[job_id] = job
            self._order.append(job_id)
            if status in _LIVE:
                # A killed service left this queued or mid-run; run it
                # (again). Completed points are already in the store and
                # the in-progress point resumes from its snapshot.
                job.status = QUEUED
                job.resumed = True
                self.metrics.counter("service.jobs.resumed").inc()
                self._queue.append(job_id)
                self._update_status(job)
            else:
                job.status = status
                job.done_event.set()
        self._wake.set()

    # -- submission ------------------------------------------------------
    def submit(
        self,
        grid: Union[CampaignSpec, Sequence[RunPoint], Sequence[Dict[str, Any]]],
        name: Optional[str] = None,
    ) -> Job:
        """Queue one grid; returns the job immediately.

        The grid is partitioned against the cache *now*: hits are
        answered from the store with zero simulation work, so an
        all-hit job is never queued and is ``done`` when this returns.
        """
        if isinstance(grid, CampaignSpec):
            points = grid.expand()
            job_name = name or grid.name
        else:
            points = [
                p if isinstance(p, RunPoint) else RunPoint.from_dict(dict(p))
                for p in grid
            ]
            job_name = name or "adhoc"
        if not points:
            raise ValueError("cannot submit an empty grid")
        if any(p.explore is not None for p in points):
            raise ValueError("explore points have no paper row; run them with repro-sim explore")
        started = time.perf_counter()
        part = self.cache.partition(points)
        with self._lock:
            self._seq += 1
            seq = self._seq
            job_id = f"job-{seq:06d}"
            job = Job(job_id, job_name, points)
            job.cache_hits = len(part.hits)
            job.queued = len(part.misses)
            self.jobs[job_id] = job
            self._order.append(job_id)
            self._persist(job, seq)
            if part.misses:
                self._queue.append(job_id)
            else:
                # the runner's bookkeeping for a job with nothing to run
                job.progress.start(skipped=len(points))
                job.progress.finish()
                job.wall_time = time.perf_counter() - started
                self.metrics.histogram("service.job.wall_seconds").observe(
                    job.wall_time
                )
                self._finish(job, DONE)
            self.metrics.counter("service.jobs.submitted").inc()
            self.metrics.counter("service.points.submitted").inc(len(points))
            self.metrics.gauge("service.queue.depth").set(len(self._queue))
        self._wake.set()
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; running jobs stop after the current point."""
        job = self.jobs.get(job_id)
        if job is None or job.finished:
            return False
        job.cancel_event.set()
        with self._lock:
            if job.status == QUEUED and job_id in self._queue:
                self._queue.remove(job_id)
                self._finish(job, CANCELLED)
        self._wake.set()
        return True

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.jobs[job_id]
        if not job.done_event.wait(timeout):
            raise TimeoutError(f"{job_id} still {job.status} after {timeout}s")
        return job

    def await_job(self, job: Job, timeout: float, closing: Callable[[], bool]) -> bool:
        """Block until ``job`` ends or ``timeout`` runs out; False when a
        shutdown or ``closing()`` (checked at each :meth:`wake`) cut it short."""
        stopped = lambda: self._stopping or closing()  # noqa: E731
        with self._changed:
            self._changed.wait_for(lambda: job.finished or stopped(), timeout)
        return job.finished or not stopped()

    def wake(self) -> None:
        with self._changed:
            self._changed.notify_all()

    def job_list(self) -> List[Job]:
        """Every known job, oldest first."""
        return [self.jobs[job_id] for job_id in self._order]

    # -- results ---------------------------------------------------------
    def report(self, job_id: str) -> CampaignReport:
        """The job's results, assembled from the store in grid order.

        Works for finished *and* in-flight jobs (in-flight reports cover
        the points recorded so far), and — because every record lives in
        the shared store — for recovered jobs whose compute happened in
        a previous service process.
        """
        job = self.jobs[job_id]
        report = CampaignReport(name=job.name, cancelled=job.status == CANCELLED)
        hashes = [point.point_hash for point in job.points]
        records = self.db.ok_records(hashes)
        for point, point_hash in zip(job.points, hashes):
            record = records.get(point_hash)
            if record is not None:
                report.points.append(point)
                report.records.append(record)
        report.executed = job.executed
        report.skipped = job.cache_hits
        report.wall_time = job.wall_time
        return report

    # -- runner thread ---------------------------------------------------
    def _run_loop(self) -> None:
        while not self._stopping:
            with self._lock:
                job_id = self._queue.popleft() if self._queue else None
                self.metrics.gauge("service.queue.depth").set(len(self._queue))
            if job_id is None:
                self._wake.wait(timeout=0.2)
                self._wake.clear()
                continue
            self._run_job(self.jobs[job_id])

    def _run_job(self, job: Job) -> None:
        job.status = RUNNING
        self._update_status(job)
        self.metrics.gauge("service.jobs.active").set(1)
        started = time.perf_counter()
        try:
            engine = CampaignEngine(
                job.points,
                store=self.db,
                workers=self.workers,
                progress=job.progress,
                snapshot_dir=self.snapshot_dir,
                pool=self._ensure_pool(),
                should_stop=lambda: (
                    job.cancel_event.is_set() or self._stopping
                ),
            )
            report = engine.run()
        except Exception as exc:  # noqa: BLE001 — a job must not kill the service
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, FAILED)
            return
        finally:
            job.wall_time = time.perf_counter() - started
            self.metrics.gauge("service.jobs.active").set(0)
        job.executed = report.executed
        job.failed_points = len(report.failed)
        self.metrics.counter("service.points.executed").inc(report.executed)
        self.metrics.counter("service.points.failed").inc(len(report.failed))
        self.metrics.counter("service.points.snapshots").inc(
            sum(r.meta.get("snapshots_taken", 0) for r in report.fresh)
        )
        self.metrics.histogram("service.job.wall_seconds").observe(job.wall_time)
        if report.cancelled and job.cancel_event.is_set():
            # Cancellation may leave shared-pool tasks queued; terminate
            # so the next job starts on idle workers (recreated lazily).
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
            self._finish(job, CANCELLED)
        elif report.cancelled:
            # Stopped by shutdown, not by the user: stay live so the
            # next service process re-enqueues and completes the job.
            job.status = QUEUED
            self._update_status(job)
        else:
            self._finish(job, DONE)

    def _ensure_pool(self):
        if self.workers > 1 and self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _finish(self, job: Job, status: str) -> None:
        job.status = status
        self._update_status(job)
        self.metrics.counter(f"service.jobs.{status}").inc()
        job.done_event.set()
        self.wake()


class CampaignService:
    """The whole service behind one facade: db + cache + jobs + metrics.

    ``data_dir=None`` runs fully in memory (no durability — tests and
    throwaway services); with a directory, results land in
    ``results.sqlite`` (shared by the jobs table) and in-progress point
    snapshots under ``snapshots/``. ``snapshot_every`` is handed to
    :class:`JobManager`, which ignores it.
    """

    def __init__(
        self,
        data_dir: Optional[str] = None,
        workers: int = 1,
        snapshot_every: int = 2000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.data_dir = data_dir
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            db_path: Optional[str] = os.path.join(data_dir, "results.sqlite")
            snapshot_dir: Optional[str] = os.path.join(data_dir, "snapshots")
        else:
            db_path = None
            snapshot_dir = None
        self.db = ResultDB(db_path)
        self.cache = ResultCache(self.db, metrics=self.metrics)
        self.manager = JobManager(
            self.db,
            cache=self.cache,
            metrics=self.metrics,
            workers=workers,
            snapshot_dir=snapshot_dir,
            snapshot_every=snapshot_every,
        ).start()
        self.started_at = time.time()

    # -- delegation ------------------------------------------------------
    def submit(self, grid, name: Optional[str] = None) -> Job:
        return self.manager.submit(grid, name=name)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> CampaignReport:
        self.manager.wait(job_id, timeout=timeout)
        return self.manager.report(job_id)

    def cancel(self, job_id: str) -> bool:
        return self.manager.cancel(job_id)

    def import_jsonl(self, path: str, campaign: str = "") -> int:
        """Migrate an existing JSONL campaign store into the cache."""
        count = self.db.import_jsonl(path, campaign=campaign)
        self.metrics.counter("service.points.imported").inc(count)
        return count

    def status(self) -> Dict[str, Any]:
        """The service-wide status document (``GET /metrics``)."""
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.manager.workers,
            "data_dir": self.data_dir,
            "jobs": [job.to_dict() for job in self.manager.job_list()],
            "store": self.db.status_counts(),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }

    def job_timeseries(self, job_id: str) -> Dict[str, Any]:
        """Merged windowed telemetry of one job (``GET /jobs/<id>/timeseries``).

        Assembled from the stored point results in grid order, so it
        works for in-flight jobs (covering the points finished so far)
        and is worker-count-independent. Rows are empty when the job's
        points did not set ``timeseries_window``. Raises ``KeyError``
        for an unknown job.
        """
        job = self.manager.jobs[job_id]
        merged = self.manager.report(job_id).merged_timeseries()
        return {
            "job_id": job_id,
            "status": job.status,
            "window": merged.get("window"),
            "dropped": merged.get("dropped", 0),
            "rows": merged.get("rows", []),
        }

    def prometheus_text(self) -> str:
        """The service registry + per-job gauges as Prometheus exposition.

        Canonically ordered (see :func:`repro.obs.prom.render_prometheus`),
        so two scrapes of an idle service are byte-identical and every
        counter/per-job-progress sample is non-decreasing across scrapes.
        """
        extra = []
        for job in self.manager.job_list():
            labels = {"job_id": job.job_id, "name": job.name}
            extra.append(
                ("service.job.points", labels, float(len(job.points)))
            )
            extra.append(
                ("service.job.points_done", labels, float(job.progress.done))
            )
            extra.append(
                ("service.job.cache_hits", labels, float(job.cache_hits))
            )
        from repro.obs.prom import render_prometheus

        return render_prometheus(self.metrics.snapshot(), extra_gauges=extra)

    def close(self) -> None:
        self.manager.shutdown()
        self.db.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
