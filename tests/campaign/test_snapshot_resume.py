"""Campaign crash-resume via snapshots: kill a point mid-run, resume it,
and require the merged result to be bit-identical to an uninterrupted
run (minus wall time and the resume bookkeeping in ``meta``)."""

from __future__ import annotations

import os

import pytest

from repro.campaign.engine import (
    SNAPSHOT_WALL_SECONDS,
    CampaignEngine,
    build_point_runtime,
    execute_point,
)
from repro.campaign.spec import RunPoint
from repro.campaign.store import ResultStore
from repro.snapshot import SnapshotPolicy, SnapshotStore, Snapshotter


def _point():
    return RunPoint(
        protocol="mutable",
        workload="p2p",
        workload_params={"mean_send_interval": 20.0},
        system_params={"n_processes": 8, "trace_messages": True},
        run_params={"max_initiations": 3},
        seed=5,
    )


def _interrupt(point, snapshot_root, events=1200, every=500):
    """Run a point partway with snapshots, then abandon it — the state a
    killed worker leaves on disk. Mirrors ``execute_point``'s build."""
    point_snap_dir = os.path.join(snapshot_root, point.point_hash)
    _, workload, runner = build_point_runtime(point)
    snapshotter = Snapshotter(
        runner,
        SnapshotPolicy(every_events=every, keep=2),
        point_snap_dir,
        label=point.point_hash,
    )
    snapshotter.install()
    workload.start()
    runner._schedule_first_initiations()
    for _ in range(events):  # sim.run treats a spent budget as runaway
        runner.system.sim.step()
    assert snapshotter.taken, "interruption produced no snapshots"
    return point_snap_dir


def _comparable(record):
    return {k: v for k, v in record.items() if k not in ("wall_time", "meta")}


def test_killed_point_resumes_bit_identically(tmp_path):
    point = _point()
    control = execute_point(point.to_dict())
    assert control["status"] == "ok"

    snapshot_root = str(tmp_path / "snaps")
    _interrupt(point, snapshot_root)

    resumed = execute_point(point.to_dict(), snapshot_dir=snapshot_root)
    assert resumed["status"] == "ok"
    assert resumed["meta"]["resumed_from"].endswith(".rsnap")
    assert _comparable(resumed) == _comparable(control)
    # the merged metrics specifically — the acceptance criterion
    assert resumed["result"]["metrics"] == control["result"]["metrics"]


def test_resume_continues_from_latest_snapshot(tmp_path):
    point = _point()
    snapshot_root = str(tmp_path / "snaps")
    snap_dir = _interrupt(point, snapshot_root, events=1700, every=500)
    latest = SnapshotStore(snap_dir).latest()
    assert latest is not None and latest.meta.events_processed == 1500

    resumed = execute_point(point.to_dict(), snapshot_dir=snapshot_root)
    assert resumed["status"] == "ok"
    assert resumed["meta"]["resumed_from"] == latest.path


def test_engine_snapshot_dir_wires_executor_and_store(tmp_path, wall_clock):
    wall_clock.step = SNAPSHOT_WALL_SECONDS / 4  # a snapshot per 256 events
    point = _point()
    snapshot_root = str(tmp_path / "snaps")
    store = ResultStore(None)
    engine = CampaignEngine(
        [point],
        store=store,
        quiet=True,
        snapshot_dir=snapshot_root,
    )
    report = engine.run()
    assert report.ok
    record = report.records[0]
    assert record.meta["snapshot_dir"] == os.path.join(
        snapshot_root, point.point_hash
    )
    assert record.meta["snapshots"], "no snapshot paths recorded"
    assert store.get(point.point_hash).meta["snapshots"] == record.meta["snapshots"]
    for path in record.meta["snapshots"]:
        assert os.path.exists(path)


def test_engine_rejects_snapshot_dir_with_custom_executor(tmp_path):
    with pytest.raises(ValueError, match="snapshot_dir"):
        CampaignEngine(
            [_point()],
            executor=lambda payload: payload,
            snapshot_dir=str(tmp_path / "snaps"),
        )


def test_snapshot_campaign_result_matches_plain_campaign(tmp_path, wall_clock):
    """Snapshotting a whole (tiny) campaign changes no result payload."""
    wall_clock.step = SNAPSHOT_WALL_SECONDS / 4
    point = _point()
    plain = execute_point(point.to_dict())
    snapped = execute_point(point.to_dict(), snapshot_dir=str(tmp_path / "snaps"))
    assert snapped["meta"]["snapshots"]
    assert _comparable(snapped) == _comparable(plain)


def test_point_shorter_than_the_wall_interval_writes_no_snapshot(
    tmp_path, wall_clock
):
    """The clock never reaches ``SNAPSHOT_WALL_SECONDS``: the point writes
    nothing, and the record says so."""
    snapshot_root = tmp_path / "snaps"
    record = execute_point(_point().to_dict(), snapshot_dir=str(snapshot_root))
    assert record["status"] == "ok"
    assert "snapshots" not in record["meta"]
    assert record["meta"]["snapshots_taken"] == 0
    assert not list(snapshot_root.rglob("*.rsnap"))


def test_snapshots_taken_counts_beyond_the_kept_paths(tmp_path, wall_clock):
    """``snapshots`` lists the ``keep=2`` survivors; ``snapshots_taken``
    is how many were written."""
    wall_clock.step = SNAPSHOT_WALL_SECONDS / 4
    record = execute_point(_point().to_dict(), snapshot_dir=str(tmp_path / "snaps"))
    assert len(record["meta"]["snapshots"]) == 2
    assert record["meta"]["snapshots_taken"] == 10  # events 256 ... 2560 of 2685


def test_resumed_point_counts_only_its_own_snapshots(tmp_path):
    point = _point()
    snapshot_root = str(tmp_path / "snaps")
    _interrupt(point, snapshot_root, events=1200, every=500)  # writes 500, 1000
    resumed = execute_point(point.to_dict(), snapshot_dir=snapshot_root)
    # the image's own every_events=500 policy goes on: 1500, 2000, 2500
    assert resumed["meta"]["snapshots_taken"] == 3
