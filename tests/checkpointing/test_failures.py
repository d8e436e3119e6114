"""Tests for failure injection and §3.6 failure handling."""

from __future__ import annotations

import pytest

from repro.checkpointing.failures import FailureInjector, FailurePolicy
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.recovery import DistributedRecovery
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload


def build(seed=42, n=6):
    config = SystemConfig(n_processes=n, seed=seed)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    return system, workload


def warm_up(system, workload, until=100.0):
    workload.start()
    system.sim.run(until=until)


def start_initiation(system, pid=0):
    assert system.protocol.processes[pid].initiate()
    return system.protocol.processes[pid].initiating


def test_failed_process_drops_messages():
    system, workload = build()
    warm_up(system, workload)
    injector = FailureInjector(system)
    injector.fail_process(3)
    system.sim.run(until=system.sim.now + 100.0)
    assert system.metrics.value("messages_to_failed") > 0
    assert system.sim.trace.count("failure", pid=3) == 1


def test_failure_outside_checkpointing_needs_no_protocol_action():
    system, workload = build()
    warm_up(system, workload)
    injector = FailureInjector(system)
    injector.fail_process(3)
    assert system.sim.trace.count("abort") == 0


def test_abort_policy_discards_everything():
    system, workload = build()
    warm_up(system, workload)
    trigger = start_initiation(system, pid=0)
    system.sim.run(until=system.sim.now + 0.5)  # requests spread, saves pending
    injector = FailureInjector(system, FailurePolicy.ABORT)
    injector.fail_process(3)
    system.sim.run(until=system.sim.now + 60.0)
    assert system.sim.trace.count("abort") == 1
    # nothing from the aborted initiation was committed
    assert system.sim.trace.count("permanent", trigger=trigger) == 0
    # recovery still possible from the initial checkpoints
    report = DistributedRecovery(system).rollback()
    assert report.line[0].csn == 0


def test_coordinator_failure_aborts_its_initiation():
    system, workload = build()
    warm_up(system, workload)
    trigger = start_initiation(system, pid=0)
    injector = FailureInjector(system, FailurePolicy.ABORT)
    injector.fail_process(0)
    system.sim.run(until=system.sim.now + 60.0)
    assert system.sim.trace.count("abort") == 1
    assert system.sim.trace.count("permanent", trigger=trigger) == 0


def test_partial_commit_keeps_independent_checkpoints():
    system, workload = build(seed=7)
    warm_up(system, workload)
    trigger = start_initiation(system, pid=0)
    system.sim.run(until=system.sim.now + 3.0)  # let some saves complete
    # pick a participant to fail (not the initiator)
    participants = [
        pid
        for pid, proc in system.protocol.processes.items()
        if trigger in proc.pending_tentative and pid != 0
    ]
    assert participants, "need at least one participant for this seed"
    victim = participants[-1]
    injector = FailureInjector(system, FailurePolicy.PARTIAL_COMMIT)
    injector.fail_process(victim)
    system.sim.run(until=system.sim.now + 60.0)
    record = system.sim.trace.last("partial_commit")
    assert record is not None
    assert victim in record["excluded"]
    committed = record["committed"]
    # the committed survivors made their checkpoints permanent
    for pid in committed:
        assert system.sim.trace.count("permanent", pid=pid, trigger=trigger) == 1
    # the victim did not
    assert system.sim.trace.count("permanent", pid=victim, trigger=trigger) == 0


def test_partial_commit_line_remains_consistent():
    from repro.analysis.consistency import assert_line_consistent, latest_permanent_line

    system, workload = build(seed=11)
    warm_up(system, workload)
    trigger = start_initiation(system, pid=0)
    system.sim.run(until=system.sim.now + 3.0)
    participants = [
        pid
        for pid, proc in system.protocol.processes.items()
        if trigger in proc.pending_tentative and pid != 0
    ]
    assert participants
    injector = FailureInjector(system, FailurePolicy.PARTIAL_COMMIT)
    injector.fail_process(participants[-1])
    system.sim.run(until=system.sim.now + 60.0)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def _build_dependency_chain(n=5, seed=3):
    """A system with a hand-built dependency graph (no workload):

    P0 depends on P1 and P4, P1 on P2, P2 on P3, P4 on nobody.
    Initiating at P0 therefore requests the whole chain, and failing P3
    mid-coordination exercises the transitive-abort path.
    """
    config = SystemConfig(n_processes=n, seed=seed)
    system = MobileSystem(config, MutableCheckpointProtocol())
    for src, dst in [(3, 2), (2, 1), (1, 0), (4, 0)]:
        system.processes[src].send_computation(dst, payload=f"{src}->{dst}")
        system.run_until_quiescent()
    return system


def _run_until_participants(system, trigger, pids, deadline=30.0):
    end = system.sim.now + deadline
    procs = system.protocol.processes
    while system.sim.now < end:
        if all(trigger in procs[pid].pending_tentative for pid in pids):
            return
        if not system.sim.step():
            break
    raise AssertionError(
        f"not all of {pids} joined initiation {trigger} within {deadline}s"
    )


def test_partial_commit_independent_commit_dependent_subtree_aborts():
    """§3.6 Kim-Park: independent participants commit; the subtree that
    depends on the failed process — directly or transitively — aborts."""
    system = _build_dependency_chain()
    trigger = start_initiation(system, pid=0)
    _run_until_participants(system, trigger, pids=[0, 1, 2, 3, 4])
    injector = FailureInjector(system, FailurePolicy.PARTIAL_COMMIT)
    injector.fail_process(3)
    system.sim.run(until=system.sim.now + 60.0)

    record = system.sim.trace.last("partial_commit")
    assert record is not None
    assert record["failed"] == 3
    # direct dependence: P2 received from P3
    assert 2 in record["excluded"]
    # transitive dependence: P1 only through P2, P0 only through P1
    assert 1 in record["excluded"]
    assert 0 in record["excluded"]
    # P4 never received from anyone in the subtree: it commits
    assert record["committed"] == (4,)
    assert system.sim.trace.count("permanent", pid=4, trigger=trigger) == 1
    for pid in (0, 1, 2, 3):
        assert system.sim.trace.count("permanent", pid=pid, trigger=trigger) == 0


def test_partial_commit_transitive_line_is_consistent():
    """The committed line after a transitive partial commit has no
    orphans: P1's committed state must not record a receive whose send
    died with P2's aborted tentative."""
    from repro.analysis.consistency import assert_line_consistent, latest_permanent_line

    system = _build_dependency_chain(seed=17)
    trigger = start_initiation(system, pid=0)
    _run_until_participants(system, trigger, pids=[0, 1, 2, 3, 4])
    injector = FailureInjector(system, FailurePolicy.PARTIAL_COMMIT)
    injector.fail_process(3)
    system.sim.run(until=system.sim.now + 60.0)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def test_restart_reattaches_process():
    system, workload = build()
    warm_up(system, workload)
    injector = FailureInjector(system)
    injector.fail_process(3)
    injector.restart_process(3)
    assert 3 not in injector.failed_pids
    assert system.sim.trace.count("restart", pid=3) == 1


def test_double_fail_is_idempotent_and_bad_restart_rejected():
    from repro.errors import ProtocolError

    system, workload = build()
    injector = FailureInjector(system)
    injector.fail_process(3)
    injector.fail_process(3)
    assert system.sim.trace.count("failure", pid=3) == 1
    with pytest.raises(ProtocolError):
        injector.restart_process(4)
