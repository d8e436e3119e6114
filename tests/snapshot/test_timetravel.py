"""Time-travel replay: regenerated windows are byte-identical.

The determinism guarantee under test: a flight-recorder run evicts
DEBUG records, but resuming the nearest snapshot at full DEBUG fidelity
regenerates exactly the records an unbounded trace of the original run
would have held in that window.
"""

from __future__ import annotations

import pytest

from repro.core.config import (
    PointToPointWorkloadConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.registry import build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SnapshotError
from repro.sim.trace import TraceLog
from repro.snapshot import (
    SnapshotPolicy,
    Snapshotter,
    nearest_snapshot,
    replay_window,
)
from repro.workload.point_to_point import PointToPointWorkload
from tests.sim.test_export import dumps_trace


def build_run(debug_capacity=None):
    config = SystemConfig(
        n_processes=8, seed=5, trace_messages=True,
        trace_debug_capacity=debug_capacity,
    )
    system = MobileSystem(config, build_protocol("mutable"))
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(80.0))
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6)
    )
    return system, runner


@pytest.fixture(scope="module")
def snapshotted_run(tmp_path_factory):
    """One full-fidelity run with periodic snapshots; shared (read-only)."""
    directory = str(tmp_path_factory.mktemp("snaps"))
    system, runner = build_run()
    snapshotter = Snapshotter(
        runner, SnapshotPolicy(every_events=800), directory
    )
    snapshotter.install()
    runner.run()
    return directory, list(system.sim.trace), snapshotter.taken


def test_replayed_window_is_byte_identical(snapshotted_run):
    directory, full_trace, taken = snapshotted_run
    assert len(taken) >= 2, "need several snapshots to pick between"
    mid_time = full_trace[len(full_trace) // 2].time
    replayed = replay_window(directory, start_time=mid_time)
    assert replayed.start_time <= mid_time
    want = [
        dumps_trace([r]) for r in full_trace if r.time >= replayed.start_time
    ]
    got = [dumps_trace([r]) for r in replayed.window()]
    assert want == got
    # end-bounded windows clip the same records
    end = full_trace[-1].time / 2
    bounded = [dumps_trace([r]) for r in replayed.window(end_time=end)]
    assert bounded == [
        line
        for line, r in zip(want, (r for r in full_trace
                                  if r.time >= replayed.start_time))
        if r.time <= end
    ]


def test_replay_recovers_flight_recorder_evictions(snapshotted_run, tmp_path):
    """The point of 3c: a bounded original run loses nothing for good."""
    directory, full_trace, _ = snapshotted_run
    # Same run, bounded ring: most DEBUG records are evicted...
    system, runner = build_run(debug_capacity=50)
    runner.run()
    assert system.sim.trace.debug_evicted > 0
    assert len(list(system.sim.trace)) < len(full_trace)
    # ...yet the replay regenerates the full suffix, unbounded.
    replayed = replay_window(directory)
    assert replayed.trace.debug_capacity is None
    full = [dumps_trace([r]) for r in full_trace]
    regenerated = [dumps_trace([r]) for r in replayed.trace]
    assert regenerated == full


def test_nearest_snapshot_selection(snapshotted_run):
    directory, _, taken = snapshotted_run
    infos = [nearest_snapshot(directory, None)]
    assert infos[0].path == taken[0]  # None -> earliest (longest window)
    latest = nearest_snapshot(directory, float("inf"))
    assert latest.path == taken[-1]
    # a start before every snapshot falls back to the earliest
    assert nearest_snapshot(directory, 0.0).path == taken[0]
    # exact boundary: a snapshot at t qualifies for start_time == t
    t1 = nearest_snapshot(directory, float("inf")).meta.sim_time
    assert nearest_snapshot(directory, t1).meta.sim_time == t1


def test_replay_missing_directory_raises(tmp_path):
    empty = str(tmp_path / "none")
    assert nearest_snapshot(empty) is None
    with pytest.raises(SnapshotError, match="no snapshots"):
        replay_window(empty)


def test_release_flight_recorder_folds_ring_in():
    log = TraceLog(debug_capacity=2)
    log.record(0.0, "info0")
    log.debug(1.0, "d1")
    log.debug(2.0, "d2")
    log.debug(3.0, "d3")  # evicts d1
    assert log.debug_evicted == 1
    log.release_flight_recorder()
    assert log.debug_capacity is None
    assert [r.kind for r in log] == ["info0", "d2", "d3"]
    # unbounded from here on: nothing further is evicted
    for i in range(10):
        log.debug(4.0 + i, f"d{4 + i}")
    assert log.debug_evicted == 1
    assert len(log) == 13
