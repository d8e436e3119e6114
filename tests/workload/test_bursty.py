"""Tests for the bursty ON/OFF workload."""

from __future__ import annotations

import pytest

from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import ConfigurationError
from repro.workload.bursty import BurstyWorkload, BurstyWorkloadConfig


def build(n=8, seed=5):
    return MobileSystem(SystemConfig(n_processes=n, seed=seed), MutableCheckpointProtocol())


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        BurstyWorkloadConfig(burst_send_interval=0.0)
    with pytest.raises(ConfigurationError):
        BurstyWorkloadConfig(mean_on=-1.0)


def test_average_rate_formula():
    config = BurstyWorkloadConfig(burst_send_interval=0.5, mean_on=5.0, mean_off=95.0)
    assert config.average_rate == pytest.approx(0.1)


def test_long_run_rate_matches_average():
    system = build()
    config = BurstyWorkloadConfig(burst_send_interval=0.5, mean_on=5.0, mean_off=45.0)
    workload = BurstyWorkload(system, config)
    workload.start()
    horizon = 20000.0
    system.sim.run(until=horizon)
    workload.stop()
    expected = config.average_rate * 8 * horizon
    assert workload.messages_generated == pytest.approx(expected, rel=0.15)


def test_traffic_is_actually_bursty():
    """Messages cluster: the busiest 10% of seconds carry far more than
    10% of the traffic."""
    system = build()
    config = BurstyWorkloadConfig(burst_send_interval=0.2, mean_on=3.0, mean_off=57.0)
    workload = BurstyWorkload(system, config)
    seconds = {}
    system.add_deliver_hook(
        lambda proc, msg: seconds.__setitem__(
            int(system.sim.now), seconds.get(int(system.sim.now), 0) + 1
        )
    )
    workload.start()
    system.sim.run(until=5000.0)
    workload.stop()
    system.run_until_quiescent()
    counts = sorted(seconds.values(), reverse=True)
    total = sum(counts)
    busiest_decile = sum(counts[: max(1, len(counts) // 10)])
    # under uniform traffic the busiest decile of active seconds holds
    # ~10-13% of messages; bursts concentrate ~2x that
    assert busiest_decile > 0.2 * total


def test_on_off_state_tracking():
    system = build(n=2)
    workload = BurstyWorkload(system, BurstyWorkloadConfig(mean_on=5.0, mean_off=5.0))
    assert not workload.is_on(0)
    workload.start()
    system.sim.run(until=100.0)
    workload.stop()
    system.run_until_quiescent()
    assert workload.messages_generated > 0


def test_a_send_queued_past_its_burst_neither_sends_nor_rearms():
    """A send armed in a burst that has since ended is dropped, so each
    burst runs one chain of sends, not one more per burst."""
    system = build(n=2)
    workload = BurstyWorkload(system, BurstyWorkloadConfig())
    workload._running = True

    def armed():
        return [entry[4] for entry in system.sim._queue if entry[3] == workload._fire]

    workload._fire(0)  # pid 0 is between bursts
    assert workload.messages_generated == 0 and armed() == []
    workload._on[0] = True
    workload._fire(0)
    assert workload.messages_generated == 1 and armed() == [(0,)]


def test_checkpointing_under_bursts_stays_consistent():
    system = build(seed=11)
    config = BurstyWorkloadConfig(burst_send_interval=0.3, mean_on=10.0, mean_off=40.0)
    workload = BurstyWorkload(system, config)
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=5, warmup_initiations=1)
    )
    result = runner.run(max_events=20_000_000)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    assert result.n_initiations == 4
