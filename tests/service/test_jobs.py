"""Tests for the async job manager and the CampaignService facade."""

from __future__ import annotations

import json
import os
import time

from repro.campaign import RunPoint, build_point_runtime
from repro.service.db import ResultDB
from repro.snapshot import SnapshotPolicy, Snapshotter
from repro.service.jobs import CANCELLED, DONE, QUEUED, CampaignService, JobManager


def canonical(report):
    """The deterministic part of a report: rows minus wall time, metrics."""
    rows = [
        {k: v for k, v in row.items() if k != "wall_time"}
        for row in report.rows()
    ]
    return json.dumps(
        {"rows": rows, "metrics": report.merged_metrics().snapshot()},
        sort_keys=True,
    )


def test_submit_and_wait(tiny_spec):
    with CampaignService() as svc:
        job = svc.submit(tiny_spec)
        report = svc.wait(job.job_id, timeout=60)
        assert job.status == DONE
        assert job.executed == 2
        assert job.cache_hits == 0
        assert report.total == 2
        assert report.ok
        doc = job.to_dict()
        assert doc["done"] == doc["total"] == 2
        assert doc["queued"] == 2


def test_resubmit_is_all_cache_hits(tiny_spec):
    with CampaignService() as svc:
        first = svc.submit(tiny_spec)
        ref = canonical(svc.wait(first.job_id, timeout=60))
        again = svc.submit(tiny_spec)
        # answered inside submit: never queued, never seen by the runner
        assert again.status == DONE
        doc = again.to_dict()
        assert doc["done"] == 2
        assert doc["progress"][-1].startswith("done: 0 run, 2 skipped")
        assert again.wall_time > 0
        # both jobs are timed, the all-hit one included
        histograms = svc.metrics.snapshot()["histograms"]
        assert histograms["service.job.wall_seconds"]["count"] == 2
        report = svc.wait(again.job_id, timeout=60)
        assert again.cache_hits == 2
        assert again.queued == 0
        assert again.executed == 0
        assert canonical(report) == ref
        assert svc.cache.stats()["hits"] == 2


def test_submit_points_and_dicts(tiny_spec):
    points = tiny_spec.expand()
    with CampaignService() as svc:
        job = svc.submit([p.to_dict() for p in points], name="as-dicts")
        report = svc.wait(job.job_id, timeout=60)
        assert job.name == "as-dicts"
        assert report.total == 2


def test_empty_grid_rejected():
    with CampaignService() as svc:
        try:
            svc.submit([])
            raise AssertionError("empty grid accepted")
        except ValueError:
            pass


def test_cancel_queued_job(tiny_spec, slow_spec):
    """A job cancelled while still queued never runs."""
    with CampaignService() as svc:
        first = svc.submit(slow_spec)   # occupies the runner
        second = svc.submit(tiny_spec)  # waits behind it
        assert svc.cancel(second.job_id)
        job = svc.manager.wait(second.job_id, timeout=60)
        assert job.status == CANCELLED
        assert job.executed == 0
        svc.manager.wait(first.job_id, timeout=120)
        # a finished job cannot be cancelled
        assert not svc.cancel(first.job_id)


def test_queued_job_recovers_across_restart(tmp_path, tiny_spec):
    """A persisted queued job survives a dead service (deterministically:
    the first manager is never started, so the job cannot have run)."""
    db_path = str(tmp_path / "results.sqlite")
    db = ResultDB(db_path)
    manager = JobManager(db)  # no .start(): simulates dying pre-run
    job = manager.submit(tiny_spec)
    assert job.status == QUEUED
    manager.shutdown()
    db.close()

    db2 = ResultDB(db_path)
    manager2 = JobManager(db2).start()
    try:
        recovered = manager2.jobs[job.job_id]
        assert recovered.resumed
        finished = manager2.wait(job.job_id, timeout=60)
        assert finished.status == DONE
        report = manager2.report(job.job_id)
        assert report.total == 2 and report.ok
        assert manager2.metrics.value("service.jobs.resumed") == 1
    finally:
        manager2.shutdown()
        db2.close()


def test_interrupted_job_completes_identically(tmp_path, slow_spec):
    """Shutdown mid-job requeues it; a new service completes it with
    results identical to an uninterrupted run."""
    with CampaignService() as ref:
        job = ref.submit(slow_spec)
        started = time.perf_counter()
        ref_doc = canonical(ref.wait(job.job_id, timeout=120))
        uninterrupted = time.perf_counter() - started

    data_dir = str(tmp_path / "svc")
    svc = CampaignService(data_dir=data_dir)
    job = svc.submit(slow_spec)
    time.sleep(uninterrupted / 3)  # partway through the grid
    svc.close()  # cooperative stop between points

    svc2 = CampaignService(data_dir=data_dir)
    try:
        report = svc2.wait(job.job_id, timeout=120)
        assert svc2.manager.jobs[job.job_id].status == DONE
        assert canonical(report) == ref_doc
    finally:
        svc2.close()


def test_sharded_job_matches_sequential_job():
    """A job of ``shards=2`` points completes, and its results equal the
    sequential job's but for the ``shard_stats`` block; no status or
    metrics surface mentions shards."""

    def points(shards):
        return [
            RunPoint(
                protocol="mutable",
                workload_params={"mean_send_interval": interval},
                system_params={"n_processes": 8, "n_mss": 2, "shards": shards},
                run_params={"max_initiations": 2},
                seed=5,
            )
            for interval in (40.0, 60.0)
        ]

    def results(svc, job):
        return [svc.db.get(p.point_hash).result for p in job.points]

    with CampaignService() as svc:
        sharded = svc.submit(points(2), name="sharded")
        assert svc.wait(sharded.job_id, timeout=60).ok
        sequential = svc.submit(points(1), name="sequential")
        assert svc.wait(sequential.job_id, timeout=60).ok
        assert sharded.status == sequential.status == DONE
        assert sequential.cache_hits == 0  # shards is part of the point hash

        for with_shards, without in zip(
            results(svc, sharded), results(svc, sequential)
        ):
            stats = with_shards.pop("shard_stats")
            assert stats["shards"] == 2 and stats["envelopes"] > 0
            assert with_shards == without

        surfaces = json.dumps(svc.status()) + svc.prometheus_text()
        assert "shard" not in surfaces.replace('"sharded"', "")
        assert "stall" not in surfaces


def test_status_document(tiny_spec):
    with CampaignService() as svc:
        job = svc.submit(tiny_spec)
        svc.wait(job.job_id, timeout=60)
        status = svc.status()
        assert status["store"] == {"ok": 2}
        assert status["cache"] == {"hits": 0, "misses": 2}
        assert [j["job_id"] for j in status["jobs"]] == [job.job_id]
        counters = status["metrics"]["counters"]
        assert counters["service.jobs.submitted"] == 1
        assert counters["service.jobs.done"] == 1
        assert counters["service.points.executed"] == 2


def test_default_miss_job_takes_no_snapshot(tmp_path, tiny_spec, wall_clock):
    """Points shorter than ``SNAPSHOT_WALL_SECONDS`` write no ``.rsnap``."""
    data_dir = tmp_path / "svc"
    with CampaignService(data_dir=str(data_dir)) as svc:
        job = svc.submit(tiny_spec)
        assert svc.wait(job.job_id, timeout=60).ok
        assert svc.status()["metrics"]["counters"]["service.points.snapshots"] == 0
        for point in job.points:
            assert svc.db.get(point.point_hash).meta["snapshots_taken"] == 0
    assert not list(data_dir.rglob("*.rsnap"))


def _seed_point_snapshots(point, snapshot_root, events=1200, every=400):
    """What a service killed mid-point leaves on disk: the point's own
    snapshot directory, partway through."""
    _, workload, runner = build_point_runtime(point)
    snapshotter = Snapshotter(
        runner,
        SnapshotPolicy(every_events=every, keep=2),
        os.path.join(snapshot_root, point.point_hash),
        label=point.point_hash,
    )
    snapshotter.install()
    workload.start()
    runner._schedule_first_initiations()
    for _ in range(events):
        runner.system.sim.step()
    assert snapshotter.taken


def test_service_resumes_a_point_mid_run_from_its_snapshot(tmp_path):
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 20.0},
        system_params={"n_processes": 8, "trace_messages": True},
        run_params={"max_initiations": 3},
        seed=5,
    )
    with CampaignService() as control:
        ref = canonical(control.wait(control.submit([point]).job_id, timeout=60))

    data_dir = tmp_path / "svc"
    _seed_point_snapshots(point, str(data_dir / "snapshots"))
    with CampaignService(data_dir=str(data_dir)) as svc:
        report = svc.wait(svc.submit([point]).job_id, timeout=60)
        record = svc.db.get(point.point_hash)
        assert record.meta["resumed_from"].endswith(".rsnap")
        assert canonical(report) == ref
        # the resumed image keeps its every-400-events policy
        taken = record.meta["snapshots_taken"]
        assert taken > 0
        assert svc.metrics.value("service.points.snapshots") == taken
