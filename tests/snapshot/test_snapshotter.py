"""Snapshotter behaviour: triggers, pruning, stores, invisibility."""

from __future__ import annotations

import os

from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.snapshot import (
    SnapshotPolicy,
    SnapshotStore,
    Snapshotter,
    capture,
    read_meta,
    read_snapshot,
    restore,
    resume_run,
)


def _build(seed=11, n_processes=8, trace_messages=True):
    config = SystemConfig(
        n_processes=n_processes, seed=seed, trace_messages=trace_messages
    )
    system = MobileSystem(config, build_protocol("mutable"))
    workload = system_workload(system)
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=3, warmup_initiations=0)
    )
    return system, runner


def system_workload(system):
    from repro.workload.point_to_point import PointToPointWorkload

    return PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=20.0)
    )


def test_snapshotting_is_invisible_to_the_run():
    """Same seed with and without snapshots: identical observables."""
    control_system, control_runner = _build()
    control = control_runner.run(max_events=500_000)

    system, runner = _build()
    snap = Snapshotter(runner, SnapshotPolicy(every_events=300))
    snap.install()
    result = runner.run(max_events=500_000)

    assert snap.memory, "expected at least one snapshot"
    assert (
        system.sim.trace.content_hash()
        == control_system.sim.trace.content_hash()
    )
    assert result.to_dict() == control.to_dict()
    assert system.sim.events_processed == control_system.sim.events_processed


def test_event_trigger_cadence_and_metadata(tmp_path):
    directory = str(tmp_path / "snaps")
    _, runner = _build()
    snap = Snapshotter(
        runner, SnapshotPolicy(every_events=400), directory, label="cadence"
    )
    snap.install()
    runner.run(max_events=500_000)
    assert len(snap.taken) >= 2
    events = [read_meta(p).events_processed for p in snap.taken]
    # monotonic, roughly one per period (hook checks every 400 events)
    assert events == sorted(events)
    for earlier, later in zip(events, events[1:]):
        assert later - earlier >= 400
    meta = read_meta(snap.taken[0])
    assert meta.reason == "events"
    assert meta.label == "cadence"
    assert meta.protocol == "mutable"
    assert meta.n_processes == 8
    assert meta.seed == 11


def test_sim_time_trigger_fires(tmp_path):
    directory = str(tmp_path / "snaps")
    _, runner = _build()
    snap = Snapshotter(
        runner, SnapshotPolicy(every_sim_seconds=200.0), directory
    )
    snap.install()
    runner.run(max_events=500_000)
    assert snap.taken, "sim-time trigger never fired"
    metas = [read_meta(p) for p in snap.taken]
    assert all(m.reason == "sim_time" for m in metas)
    times = [m.sim_time for m in metas]
    # deadlines advance in multiples of the interval from t~0, so each
    # snapshot lands in its own 200s epoch (a late capture narrows the
    # next gap rather than shifting every later deadline)
    epochs = [int(t // 200.0) for t in times]
    assert epochs == sorted(set(epochs))


def test_keep_prunes_old_snapshots(tmp_path):
    directory = str(tmp_path / "snaps")
    _, runner = _build()
    snap = Snapshotter(
        runner, SnapshotPolicy(every_events=300, keep=2), directory
    )
    snap.install()
    runner.run(max_events=500_000)
    assert snap.seq > 2, "run too short to exercise pruning"
    on_disk = [n for n in os.listdir(directory) if n.endswith(".rsnap")]
    assert len(on_disk) == 2
    assert sorted(on_disk) == sorted(os.path.basename(p) for p in snap.taken)


def test_manual_take_without_triggers():
    _, runner = _build()
    snap = Snapshotter(runner)  # manual-only policy, memory mode
    runner.run(max_events=500_000)
    assert snap.memory == []
    snap.take()
    assert len(snap.memory) == 1
    meta, payload = snap.memory[0]
    assert meta.reason == "manual"
    image = restore(payload)
    assert image.system.sim.events_processed == (
        runner.system.sim.events_processed
    )


def test_directory_snapshot_streams_the_bytes_capture_writes(tmp_path):
    """A snapshot to disk is pickled frame by frame, never held whole,
    yet is byte for byte an in-memory capture; resume_run unpickles it
    from the open file."""
    system, runner = _build()
    runner.run(max_events=500_000)
    snap = Snapshotter(runner, directory=str(tmp_path / "snaps"))
    whole = capture(runner, snapshotter=snap)
    chunks = []
    assert capture(runner, snapshotter=snap, chunks=chunks) is None
    assert len(chunks) > 1 and max(map(len, chunks)) < len(whole) // 2
    assert b"".join(chunks) == whole
    path = snap.take()
    assert read_snapshot(path)[1] == whole
    image = resume_run(path)
    assert image.system.sim.trace.content_hash() == system.sim.trace.content_hash()
    assert image.system.sim.events_processed == system.sim.events_processed


def test_store_lists_and_picks_latest(tmp_path):
    directory = str(tmp_path / "snaps")
    _, runner = _build()
    snap = Snapshotter(runner, SnapshotPolicy(every_events=300), directory)
    snap.install()
    runner.run(max_events=500_000)
    store = SnapshotStore(directory)
    infos = store.list()
    assert [i.path for i in infos] == snap.taken
    latest = store.latest()
    assert latest is not None
    assert latest.path == snap.taken[-1]
    assert latest.meta.events_processed == max(
        i.meta.events_processed for i in infos
    )


def test_store_skips_unreadable_files(tmp_path):
    directory = str(tmp_path / "snaps")
    os.makedirs(directory)
    with open(os.path.join(directory, "junk.rsnap"), "wb") as fh:
        fh.write(b"this is not a snapshot")
    assert SnapshotStore(directory).list() == []
    assert SnapshotStore(str(tmp_path / "missing")).list() == []
    assert SnapshotStore(directory).latest() is None


def _wall_seconds_per_event(monkeypatch, runner, seconds):
    """A wall clock that advances ``seconds`` per dispatched event."""
    sim = runner.system.sim
    monkeypatch.setattr(
        "repro.snapshot.snapshotter.monotonic",
        lambda: sim.events_processed * seconds,
    )


def test_wallclock_trigger_fires_once_per_interval(monkeypatch):
    """Nothing until the interval has passed since ``install()``, then
    one snapshot per interval, on the first 64-event check past it."""
    _, runner = _build()
    _wall_seconds_per_event(monkeypatch, runner, 0.01)  # 10 s = 1000 events
    snap = Snapshotter(runner, SnapshotPolicy(wallclock_seconds=10.0))
    snap.install()
    runner.run(max_events=500_000)
    assert runner.system.sim.events_processed >= 2048
    assert [meta.events_processed for meta, _ in snap.memory] == [1024, 2048]
    assert {meta.reason for meta, _ in snap.memory} == {"wallclock"}


def test_event_only_policy_ignores_the_wall_clock(tmp_path, wall_clock):
    """``repro-sim run --snapshot-every`` is a plain event period: however
    little wall time passes, the run snapshots on every period (8 for
    this run)."""
    from repro.cli import main

    wall_clock.step = 1e-6
    directory = tmp_path / "snaps"
    assert main(
        "run --protocol mutable --processes 8 --rate 0.05 --initiations 3 "
        f"--seed 5 --snapshot-every 300 --snapshot-dir {directory}".split()
    ) == 0
    events = sorted(read_meta(str(p)).events_processed for p in directory.iterdir())
    assert events == [300 * k for k in range(1, 9)]


def test_uninstall_disarms_the_hook():
    _, runner = _build()
    snap = Snapshotter(runner, SnapshotPolicy(every_events=300))
    snap.install()
    snap.uninstall()
    runner.run(max_events=500_000)
    assert snap.memory == []
