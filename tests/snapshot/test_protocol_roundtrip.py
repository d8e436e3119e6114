"""Every protocol survives snapshot/resume mid-wave, bit-identically.

For each registered protocol: run a control, run the same seed with
in-memory snapshots, resume from a mid-run snapshot, and require the
resumed run to reproduce the control's trace hash, metrics, event count
and final sim time. The snapshot cadence is chosen so captures land in
the middle of coordination waves (requests in flight, mutable
checkpoints pending commit), not at quiet points.
"""

from __future__ import annotations

import pytest

from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import available_protocols, build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.snapshot import SnapshotPolicy, Snapshotter, restore
from repro.workload.point_to_point import PointToPointWorkload

#: events between in-memory snapshots; small enough to land mid-wave
SNAP_EVERY = 250


def _build(protocol_name, seed=13):
    config = SystemConfig(
        n_processes=6,
        seed=seed,
        checkpoint_interval=30.0,
        trace_messages=True,
    )
    system = MobileSystem(config, build_protocol(protocol_name))
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=10_000, time_limit=200.0),
    )
    return system, runner


def _observables(system, result):
    return {
        "trace_hash": system.sim.trace.content_hash(),
        "result": result.to_dict(),
        "events": system.sim.events_processed,
        "sim_time": system.sim.now,
    }


@pytest.mark.parametrize("protocol_name", available_protocols())
def test_snapshot_midrun_resume_matches_control(protocol_name):
    control_system, control_runner = _build(protocol_name)
    control = _observables(
        control_system, control_runner.run(max_events=500_000)
    )

    system, runner = _build(protocol_name)
    snap = Snapshotter(runner, SnapshotPolicy(every_events=SNAP_EVERY))
    snap.install()
    result = runner.run(max_events=500_000)
    assert _observables(system, result) == control, (
        f"{protocol_name}: snapshotting perturbed the run"
    )
    assert snap.memory, f"{protocol_name}: no snapshots taken"

    _, payload = snap.memory[len(snap.memory) // 2]
    image = restore(payload)
    assert image.system.protocol.name == control_system.protocol.name
    resumed = image.runner.resume(max_events=500_000)
    assert _observables(image.system, resumed) == control, (
        f"{protocol_name}: resumed run diverged from control"
    )


@pytest.mark.parametrize("protocol_name", available_protocols())
def test_state_dict_round_trip(protocol_name):
    """state_dict() -> fresh protocol -> load_state_dict() is lossless."""
    system, runner = _build(protocol_name)
    runner.run(max_events=500_000)
    state = system.protocol.state_dict()
    assert state["name"] == system.protocol.name
    assert sorted(state["processes"]) == sorted(system.processes)

    fresh_system, _ = _build(protocol_name)
    fresh_system.protocol.load_state_dict(state)

    def normalized(value):
        # leaves may be slotted/non-comparable objects; their reprs are
        # value-based (no memory addresses), so compare through them
        if isinstance(value, dict):
            return {repr(k): normalized(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [normalized(v) for v in value]
        if isinstance(value, (set, frozenset)):
            return sorted(repr(v) for v in value)
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)

    assert normalized(fresh_system.protocol.state_dict()) == normalized(state)


def test_load_state_dict_rejects_wrong_protocol():
    system, runner = _build("mutable")
    runner.run(max_events=500_000)
    state = system.protocol.state_dict()
    other_system, _ = _build("koo-toueg")
    with pytest.raises(ValueError, match="mutable"):
        other_system.protocol.load_state_dict(state)
