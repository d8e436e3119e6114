"""Tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.protocol import CheckpointProtocol, ProtocolProcess
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import ConfigurationError
from repro.explore.injections import InjectionDriver
from repro.sim.trace import TraceLevel
from repro.workload.point_to_point import PointToPointWorkload


def build_runner(seed=3, n=6, initiations=4, warmup=1, interval=900.0):
    config = SystemConfig(n_processes=n, seed=seed, checkpoint_interval=interval)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(30.0))
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=initiations, warmup_initiations=warmup),
    )
    return system, runner


def test_runs_to_initiation_target():
    system, runner = build_runner(initiations=4)
    result = runner.run(max_events=2_000_000)
    assert runner.committed == 4
    assert result.n_initiations == 3  # one warmup removed


def test_workload_stops_after_target():
    system, runner = build_runner(initiations=2)
    runner.run(max_events=2_000_000)
    assert not runner.workload.running


def test_serialized_initiations_never_overlap():
    system, runner = build_runner(initiations=5, interval=30.0)
    runner.run(max_events=2_000_000)
    # initiation i+1 starts only after commit i
    events = [
        (r.time, r.kind) for r in system.sim.trace if r.kind in ("initiation", "commit")
    ]
    depth = 0
    for _, kind in events:
        depth += 1 if kind == "initiation" else -1
        assert depth <= 1


def test_time_limit_stops_run():
    system, runner = build_runner(initiations=1000, interval=50.0)
    runner.run_config = RunConfig(max_initiations=1000, time_limit=500.0)
    result = runner.run(max_events=2_000_000)
    assert system.sim.now >= 500.0
    assert runner.committed < 1000


def test_result_contains_counters_and_times():
    system, runner = build_runner(initiations=3)
    result = runner.run(max_events=2_000_000)
    assert result.protocol == "mutable"
    assert result.counters["computation_messages"] > 0
    assert result.sim_time > 0
    assert result.wall_events > 0
    assert result.paper_row()["initiations"] == result.n_initiations


def test_same_seed_reproducible():
    def run():
        _, runner = build_runner(seed=77, initiations=3)
        result = runner.run(max_events=2_000_000)
        return (
            [s.tentative_count for s in result.initiations],
            result.counters["computation_messages"],
        )

    assert run() == run()


def test_different_seeds_differ():
    def run(seed):
        _, runner = build_runner(seed=seed, initiations=3)
        result = runner.run(max_events=2_000_000)
        return result.sim_time

    assert run(1) != run(2)


def test_max_events_limit_is_inclusive():
    """``max_events=N`` permits at most N events — not N + 1."""
    from repro.errors import SimulationError

    system, runner = build_runner(initiations=4)
    with pytest.raises(SimulationError, match="max_events=5"):
        runner.run(max_events=5)
    assert system.sim.events_processed == 5


def test_max_events_not_triggered_by_exact_finish():
    """A run that needs exactly ``max_events`` events completes."""
    system, runner = build_runner(initiations=3)
    result = runner.run(max_events=2_000_000)
    needed = system.sim.events_processed

    system2, runner2 = build_runner(initiations=3)
    result2 = runner2.run(max_events=needed)
    assert result2.sim_time == result.sim_time


def test_forced_checkpoint_postpones_next_initiation():
    """§5.1: a checkpoint taken early (forced by someone else's
    initiation) pushes the process's next *initiation* one full interval
    out. Forced checkpoints themselves may happen at any time."""
    system, runner = build_runner(initiations=6, interval=100.0)
    runner.run(max_events=2_000_000)
    last_tentative = {}
    for rec in system.sim.trace:
        if rec.kind == "tentative":
            last_tentative[rec["pid"]] = rec.time
        elif rec.kind == "initiation":
            pid = rec["pid"]
            if pid in last_tentative:
                gap = rec.time - last_tentative[pid]
                assert gap >= 99.0, f"p{pid} initiated {gap:.1f}s after a checkpoint"


class _Stalled(ProtocolProcess):
    """Never commits: refuses every initiation, or (``started``) accepts
    one and then only takes untriggered checkpoints, one per receive."""

    def __init__(self, env, started):
        super().__init__(env)
        self.started = started

    def on_send_computation(self, message):
        pass

    def on_receive_computation(self, message, deliver):
        if self.started:
            self.env.trace("tentative", pid=self.pid, trigger=None)
        deliver()

    def on_system_message(self, message):
        pass

    def initiate(self):
        return self.started


class _StalledProtocol(CheckpointProtocol):
    name = "stalled"

    def __init__(self, started):
        super().__init__()
        self.started = started

    def _build_process(self, env):
        return _Stalled(env, self.started)


def _stalled_run(started, **run_params):
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 5.0},
        system_params={"n_processes": 4, "checkpoint_interval": 100.0},
        run_params={"max_initiations": 2, "warmup_initiations": 0, **run_params},
        seed=3,
    )
    system, _, runner = build_point_runtime(point, protocol=_StalledProtocol(started))
    return system, runner


@pytest.mark.parametrize("started", [False, True], ids=["refused", "no-commit"])
def test_a_run_that_makes_no_progress_ends_with_a_typed_error(started):
    """No commit for (max_initiations + 1) intervals since the start (or
    the last commit) ends the run, whether the protocol refuses every
    initiation or its untriggered checkpoints keep re-arming the timers."""
    system, runner = _stalled_run(started)
    with pytest.raises(
        ConfigurationError,
        match="'stalled' made no progress: no commit in 300 s of simulated time",
    ):
        runner.run(max_events=1_000_000)
    assert 300.0 < system.sim.now < 320.0


def test_a_time_limit_bounds_a_stalled_run_instead():
    system, runner = _stalled_run(False, time_limit=500.0)
    result = runner.run(max_events=1_000_000)
    assert result.initiations == []
    assert 500.0 <= system.sim.now < 510.0


#: crash a host 1 s into the second wave, abort it, restart and roll back
_FAIL = {
    "kind": "fail_mid_coordination", "at_initiation": 2, "delay": 1.0,
    "victim_offset": 3, "policy": "abort", "restart_after": 4.0,
    "recover_after": 1.0,
}


def _run_at(level, case):
    """The format-1 fixture's run (16p mutable, seed 7, p2p 15 s, 6
    initiations) at ``level``: the error it ended with, if any, and what
    the system did."""
    window = 100.0 if case == "sampler" else None
    config = SystemConfig(n_processes=16, seed=7, timeseries_window=window)
    system = MobileSystem(config, MutableCheckpointProtocol())
    system.sim.trace.set_level(level)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(15.0))
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    driver = None
    if case == "injection":
        driver = InjectionDriver(system, runner, [_FAIL])
        driver.install()
    error = None
    try:
        runner.run(max_events=10_000_000)
    except ConfigurationError as exc:
        error = str(exc)
    waves = {
        section: {name: v for name, v in values.items() if name.startswith("wave.")}
        for section, values in system.metrics.snapshot().items()
    }
    return error, (
        system.sim.events_processed,
        system.sim.now,
        system.metrics.counters(),
        waves,
        driver.fired if driver is not None else None,
    )


@pytest.mark.parametrize("case", ["plain", "sampler", "injection"])
def test_the_schedule_does_not_read_the_trace_level(case):
    """§5.1's reschedule, the sampler's wave metrics and a fail injection
    follow the protocol's waves, not INFO records: at ``TraceLevel.OFF``
    the system does what it does at INFO, and the runner refuses to
    return per-initiation results it cannot read instead of ``[]``."""
    error, off = _run_at(TraceLevel.OFF, case)
    assert error is not None and "INFO" in error
    assert _run_at(TraceLevel.INFO, case) == (None, off)
    events, _, counters, waves, fired = off
    if case == "plain":
        assert events == 12_675
    if case == "sampler":
        assert counters["wave.commits"] == 6
        assert waves["histograms"]["wave.latency_seconds"]["count"] == 6
    if case == "injection":
        assert fired == [_FAIL]
