"""Resume determinism against the pinned fast-path golden values.

The acceptance bar for ``repro.snapshot``: a seeded 16-process mutable
run that is snapshotted, killed, and resumed must finish with the SAME
golden trace hash and metrics digest as the uninterrupted run pinned in
``test_fastpath_determinism.GOLDEN`` — resume is indistinguishable from
never having stopped, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.explore.injections import InjectionDriver
from repro.snapshot import (
    SnapshotPolicy,
    SnapshotStore,
    Snapshotter,
    restore,
    resume_run,
)
from repro.workload.point_to_point import PointToPointWorkload

from tests.integration.test_fastpath_determinism import GOLDEN


def _build_golden_b():
    """The exact configuration pinned as GOLDEN['B']."""
    config = SystemConfig(n_processes=16, seed=7, trace_messages=False)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    return system, runner


def _assert_golden_b(system, result):
    golden = GOLDEN["B"]
    assert system.sim.trace.content_hash() == golden["trace_hash"]
    metrics_sha = hashlib.sha256(
        json.dumps(result.metrics, sort_keys=True).encode()
    ).hexdigest()
    assert metrics_sha == golden["metrics_sha256"]
    assert system.sim.events_processed == golden["wall_events"]
    assert system.sim.now == golden["sim_time"]


def test_snapshot_enabled_run_still_matches_golden(tmp_path):
    """Snapshotting on the fused fast loop changes no observable."""
    system, runner = _build_golden_b()
    snap = Snapshotter(
        runner, SnapshotPolicy(every_events=1000), str(tmp_path / "snaps")
    )
    snap.install()
    result = runner.run(max_events=10_000_000)
    assert len(snap.taken) >= 10
    _assert_golden_b(system, result)


def test_resumed_run_matches_golden(tmp_path):
    """Kill mid-run, resume from disk, land exactly on the golden."""
    directory = str(tmp_path / "snaps")
    system, runner = _build_golden_b()
    snap = Snapshotter(runner, SnapshotPolicy(every_events=1000), directory)
    snap.install()
    runner.run(max_events=10_000_000)

    # resume from a mid-run snapshot (~event 7000 of 12675), as if the
    # original process had been killed there
    infos = SnapshotStore(directory).list()
    mid = next(i for i in infos if i.meta.events_processed == 7000)
    image = resume_run(mid.path)
    assert image.system.sim.events_processed == 7000
    result = image.runner.resume(max_events=10_000_000)
    _assert_golden_b(image.system, result)


def test_resume_from_every_snapshot_is_deterministic(tmp_path):
    """Any snapshot of the run is an equally valid resume point."""
    directory = str(tmp_path / "snaps")
    _, runner = _build_golden_b()
    snap = Snapshotter(runner, SnapshotPolicy(every_events=2000), directory)
    snap.install()
    runner.run(max_events=10_000_000)
    for info in SnapshotStore(directory).list():
        image = resume_run(info.path)
        result = image.runner.resume(max_events=10_000_000)
        _assert_golden_b(image.system, result)


#: fires at the 4th initiation, after the snapshot at event 2048
_FAIL = {
    "kind": "fail_mid_coordination", "at_initiation": 4, "delay": 1.0,
    "victim_offset": 3, "policy": "abort", "restart_after": 4.0,
    "recover_after": 1.0,
}


@pytest.mark.parametrize("legacy", [False, True], ids=["image", "legacy_image"])
def test_wave_observers_resume_into_the_uninterrupted_run(legacy):
    """The sampler's kernel hook and the wave observers (sampler, runner,
    a still-pending fail injection) travel with the image, the driver
    only as the protocol's last observer. An image written before they
    did (no ``observers`` on the protocol, no keyed kernel hooks, the
    driver in the image's own ``driver`` slot) gets them back from
    ``restore()``, in that order."""
    config = SystemConfig(n_processes=16, seed=7, timeseries_window=100.0)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(15.0))
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    driver = InjectionDriver(system, runner, [_FAIL])
    driver.install()
    # a multiple of the sampler's cadence (32), so a fresh hook countdown
    # after the restore is in phase with the uninterrupted run's
    snap = Snapshotter(runner, SnapshotPolicy(every_events=2048), directory=None)
    snap.install()

    def outcome(image_system, result, image_driver):
        return (
            image_system.sim.trace.content_hash(),
            json.dumps(result.metrics, sort_keys=True),
            json.dumps(result.timeseries, sort_keys=True),
            image_system.sim.events_processed,
            image_driver.fired,
        )

    expected = outcome(system, runner.run(max_events=10_000_000), driver)
    assert driver.fired == [_FAIL]
    payload = snap.memory[0][1]
    if legacy:
        old = pickle.loads(payload)
        old.driver = old.system.protocol.observers[-1].__self__
        del old.system.protocol.observers
        old.system.sim._hooks = {}
        payload = pickle.dumps(old)
    image = restore(payload)
    image_driver = image.system.protocol.observers[-1].__self__
    assert isinstance(image_driver, InjectionDriver)
    assert image_driver._fail_pending == [_FAIL]
    assert image.system.protocol.observers == [
        image.system.timeseries._on_wave,
        image.runner._on_wave,
        image_driver._on_wave,
    ]
    result = image.runner.resume(max_events=10_000_000)
    assert outcome(image.system, result, image_driver) == expected
