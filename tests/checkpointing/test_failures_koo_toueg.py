"""Failure handling (§3.6) with the Koo-Toueg baseline."""

from __future__ import annotations

import pytest

from repro.checkpointing.failures import FailureInjector, FailurePolicy
from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.recovery import DistributedRecovery
from repro.core.config import PointToPointWorkloadConfig, SystemConfig
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload


def build(seed=42, n=6):
    config = SystemConfig(n_processes=n, seed=seed)
    system = MobileSystem(config, KooTouegProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    workload.start()
    system.sim.run(until=100.0)
    return system, FailureInjector(system)


def test_participant_failure_aborts_and_unblocks():
    system, injector = build()
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=system.sim.now + 0.5)
    injector.fail_process(3)
    system.sim.run(until=system.sim.now + 60.0)
    assert system.sim.trace.count("abort") == 1
    # nobody is left blocked (the §3.6 abort releases everyone)
    for pid, process in system.processes.items():
        if pid not in injector.failed_pids:
            assert not process.blocked, f"p{pid} still blocked"


def test_partial_commit_policy_falls_back_to_abort_for_koo_toueg():
    """Kim-Park needs the mutable protocol's contexts; with Koo-Toueg
    the injector uses the whole-checkpointing abort of [19]."""
    system, injector = build(seed=7)
    injector.policy = FailurePolicy.PARTIAL_COMMIT
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=system.sim.now + 0.5)
    injector.fail_process(2)
    system.sim.run(until=system.sim.now + 60.0)
    assert system.sim.trace.count("abort") == 1
    assert system.sim.trace.last("partial_commit") is None


def test_recovery_after_koo_toueg_abort():
    system, injector = build(seed=9)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=system.sim.now + 0.5)
    injector.fail_process(4)
    system.sim.run(until=system.sim.now + 60.0)
    report = DistributedRecovery(system).rollback()
    # everything rolls back to the initial checkpoints (nothing committed)
    assert all(rec.csn == 0 for rec in report.line.values())


def test_initiating_property_mirrors_mutable():
    system, _ = build()
    p0 = system.protocol.processes[0]
    assert p0.initiating is None
    assert p0.initiate()
    assert p0.initiating is not None
    system.sim.run(until=system.sim.now + 120.0)
    assert p0.initiating is None
