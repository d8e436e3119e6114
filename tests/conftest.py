"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.sim.kernel import Simulator
from repro.workload.point_to_point import PointToPointWorkload


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation kernel."""
    return Simulator()


class FakeWallClock:
    """Stands in for the snapshotter's ``monotonic``: frozen at 0 until
    ``step`` is set, then every read advances it by ``step`` seconds."""

    def __init__(self) -> None:
        self.now = 0.0
        self.step = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture
def wall_clock(monkeypatch) -> FakeWallClock:
    """The snapshotter's wall clock, under test control (no test sleeps).

    Left frozen, no wall-clock trigger ever fires. The snapshotter reads
    the clock once per 64-event check and once per snapshot, so
    ``wall_clock.step = SNAPSHOT_WALL_SECONDS / 4`` fires one on every
    fourth check: a snapshot per 256 events.
    """
    clock = FakeWallClock()
    monkeypatch.setattr("repro.snapshot.snapshotter.monotonic", clock)
    return clock


@pytest.fixture
def small_system() -> MobileSystem:
    """A 4-process single-cell system with the mutable protocol."""
    config = SystemConfig(n_processes=4, seed=1234)
    return MobileSystem(config, MutableCheckpointProtocol(track_weights=True))


def run_experiment(
    protocol,
    n_processes: int = 8,
    seed: int = 42,
    mean_send_interval: float = 30.0,
    initiations: int = 4,
    warmup: int = 1,
    **config_kwargs,
):
    """Build, run, and return (system, result) for a quick experiment."""
    config = SystemConfig(n_processes=n_processes, seed=seed, **config_kwargs)
    system = MobileSystem(config, protocol)
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval)
    )
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=initiations, warmup_initiations=warmup),
    )
    result = runner.run(max_events=5_000_000)
    return system, result
