"""Tests for the campaign engine: parallel determinism, resume, retry."""

from __future__ import annotations

import pytest

from repro.campaign.engine import CampaignEngine, execute_point, run_point
from repro.campaign.spec import CampaignSpec, RunPoint
from repro.campaign.store import ResultStore
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.results import RunResult
from repro.errors import EventBudgetExceeded, SimulationError


def six_point_spec(name="six"):
    """2 protocols x 3 rates = 6 small points."""
    return CampaignSpec(
        name=name,
        protocols=["mutable", "koo-toueg"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": interval}
            for interval in (60.0, 25.0, 12.0)
        ],
        configs=[{"n_processes": 4, "trace_messages": True}],
        run={"max_initiations": 3, "warmup_initiations": 1},
    )


def metric_rows(report):
    """Result rows minus wall-time (the only timing-dependent field)."""
    return [
        {k: v for k, v in row.items() if k != "wall_time"}
        for row in report.rows()
    ]


# -- execution ---------------------------------------------------------
def test_run_point_returns_result():
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 30.0},
        system_params={"n_processes": 4},
        run_params={"max_initiations": 2},
        seed=9,
    )
    result = run_point(point)
    assert isinstance(result, RunResult)
    assert result.protocol == "mutable"
    assert result.seed == 9


def test_run_point_with_injected_protocol_instance():
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 30.0},
        system_params={"n_processes": 4},
        run_params={"max_initiations": 2},
        seed=9,
    )
    injected = run_point(point, protocol=MutableCheckpointProtocol())
    assert injected == run_point(point)


def test_execute_point_never_raises():
    bad = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 30.0},
        run_params={"max_initiations": 50},
        max_events=10,  # guaranteed to trip the runaway guard
    )
    record = execute_point(bad.to_dict())
    assert record["status"] == "failed"
    assert "max_events=10" in record["error"]
    # the kernel's runaway guard: its budget error, a SimulationError
    assert "EventBudgetExceeded" in record["meta"]["traceback"]
    assert issubclass(EventBudgetExceeded, SimulationError)
    assert record["point_hash"] == bad.point_hash


# -- determinism -------------------------------------------------------
def test_workers_do_not_change_results():
    """A 6-point campaign with workers=4 is bit-identical to workers=1:
    same spec hashes, same metric values."""
    serial = CampaignEngine(six_point_spec(), workers=1).run()
    parallel = CampaignEngine(six_point_spec(), workers=4).run()
    assert serial.total == parallel.total == 6
    assert metric_rows(serial) == metric_rows(parallel)
    # stronger than rows: the full result payloads match
    assert [r.to_dict() for r in serial.results()] == [
        r.to_dict() for r in parallel.results()
    ]


# -- resume ------------------------------------------------------------
def test_resume_runs_only_missing_points(tmp_path):
    """Killing a campaign mid-run then re-invoking it completes only the
    remaining points (simulated by a store holding a partial run)."""
    path = str(tmp_path / "campaign.jsonl")
    spec = six_point_spec()
    all_points = spec.expand()

    # "Crash" after three points: run a half-grid campaign whose points
    # are content-identical to the first half of the full grid.
    half = CampaignSpec.from_dict({**spec.to_dict(), "protocols": ["mutable"]})
    with ResultStore(path) as store:
        first = CampaignEngine(half, store=store, workers=1).run()
    assert first.executed == 3
    done_hashes = {r.point_hash for r in first.records}
    assert done_hashes < {p.point_hash for p in all_points}

    with ResultStore(path) as store:
        resumed = CampaignEngine(spec, store=store, workers=2).run()
    assert resumed.skipped == 3
    assert resumed.executed == 3
    # and the combined report matches a from-scratch run exactly
    scratch = CampaignEngine(six_point_spec(), workers=1).run()
    assert metric_rows(resumed) == metric_rows(scratch)


def test_fully_resumed_campaign_runs_nothing(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    with ResultStore(path) as store:
        CampaignEngine(six_point_spec(), store=store).run()
    with ResultStore(path) as store:
        again = CampaignEngine(six_point_spec(), store=store).run()
    assert again.executed == 0
    assert again.skipped == 6
    assert len(again.records) == 6 and again.ok


# -- failure handling --------------------------------------------------
def failing_points():
    good = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 30.0},
        system_params={"n_processes": 4},
        run_params={"max_initiations": 2},
        seed=3,
    )
    bad = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 30.0},
        run_params={"max_initiations": 50},
        max_events=10,
    )
    return [good, bad]


def test_failed_point_retried_once_and_recorded(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    with ResultStore(path) as store:
        report = CampaignEngine(failing_points(), store=store).run()
    assert not report.ok
    assert len(report.failed) == 1
    failed = report.failed[0]
    assert failed.attempts == 2  # retried exactly once
    assert "max_events" in failed.error
    # the good point still completed and the campaign finished
    assert len(report.records) == 2
    assert report.records[0].ok
    # both attempts are on disk, final state is failed
    with ResultStore(path) as store:
        assert store.completed_hashes() == {report.records[0].point_hash}
        assert store.get(failed.point_hash).attempts == 2
    lines = open(path).read().splitlines()
    assert len(lines) == 3  # 1 ok + 2 failed attempts


def test_failed_points_rerun_on_resume(tmp_path):
    """Only *successful* points are skipped on resume."""
    path = str(tmp_path / "campaign.jsonl")
    with ResultStore(path) as store:
        CampaignEngine(failing_points(), store=store).run()
    with ResultStore(path) as store:
        again = CampaignEngine(failing_points(), store=store).run()
    assert again.skipped == 1
    assert again.executed == 1  # the failed point ran again


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        CampaignEngine(six_point_spec(), workers=0)


def test_a_repeated_cell_runs_once(tmp_path):
    """A grid that names one cell twice runs it once: ``executed``
    counts distinct point hashes, and the report still lists the cell
    at both of its places in the grid."""
    cell = {"kind": "p2p", "mean_send_interval": 60.0}
    spec = CampaignSpec(
        name="repeat",
        workloads=[cell, {"kind": "p2p", "mean_send_interval": 25.0}, dict(cell)],
        configs=[{"n_processes": 4}],
        run={"max_initiations": 2, "warmup_initiations": 1},
    )
    points = spec.expand()
    distinct = {p.point_hash for p in points}
    assert (len(points), len(distinct)) == (3, 2)
    path = str(tmp_path / "repeat.jsonl")
    with ResultStore(path) as store:
        report = CampaignEngine(spec, store=store, workers=1).run()
    assert report.executed == len(distinct)
    assert report.skipped == 0
    with open(path, encoding="utf-8") as handle:
        assert len(handle.readlines()) == len(distinct)  # one record a cell
    assert [p.point_hash for p in report.points] == [p.point_hash for p in points]


def test_a_run_hashes_each_point_once(monkeypatch):
    """``RunPoint.point_hash`` serialises and hashes the whole point on
    every read, so a run reads it once per point of the grid: the
    §5.1 grid, 3 protocols x (4 p2p rates + 2 group rates) at 16 MHs."""
    workloads = [
        {"kind": "p2p", "mean_send_interval": 1.0 / rate}
        for rate in (0.01, 0.02, 0.05, 0.1)
    ] + [
        {"kind": "group", "mean_send_interval": 1.0 / rate, "n_groups": 4,
         "intra_inter_ratio": 1000.0}
        for rate in (0.02, 0.05)
    ]
    spec = CampaignSpec(
        name="paper16",
        protocols=["mutable", "koo-toueg", "elnozahy"],
        workloads=workloads,
        configs=[{"n_processes": 16, "trace_messages": False}],
        seed=11,
        run={"max_initiations": 2, "warmup_initiations": 1},
    )
    engine = CampaignEngine(spec, workers=1)
    assert len(engine.points) == 18
    reads = {}
    point_hash = RunPoint.point_hash.fget

    def counted(point):
        reads[id(point)] = reads.get(id(point), 0) + 1
        return point_hash(point)

    monkeypatch.setattr(RunPoint, "point_hash", property(counted))
    report = engine.run()
    assert len(report.failed) == 0 and len(report.records) == 18
    assert sorted(reads) == sorted(id(p) for p in engine.points)
    assert set(reads.values()) == {1}
