"""Tests for the distributed rollback protocol."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.recovery import DistributedRecovery
from repro.core.config import PointToPointWorkloadConfig, SystemConfig
from repro.core.system import MobileSystem
from repro.errors import ProtocolError
from repro.workload.point_to_point import PointToPointWorkload


def build(seed=5, n=6):
    system = MobileSystem(
        SystemConfig(n_processes=n, seed=seed), MutableCheckpointProtocol()
    )
    recovery = DistributedRecovery(system)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    return system, recovery, workload


def checkpointed_run(system, workload, until=150.0):
    workload.start()
    system.sim.run(until=until / 2)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=until)


def test_recovery_round_completes():
    system, recovery, workload = build()
    checkpointed_run(system, workload)
    round_ = recovery.recover(2)
    system.sim.run(until=system.sim.now + 30.0)
    assert round_.complete
    assert round_.duration > 0
    assert len(round_.acked) == 6
    assert system.sim.trace.count("recovery_complete") == 1


def test_all_processes_restored_to_consistent_line():
    system, recovery, workload = build()
    checkpointed_run(system, workload)
    recovery.recover(0)
    system.sim.run(until=system.sim.now + 30.0)
    # nobody has received more from a peer than the peer has sent it
    processes = system.processes
    assert all(
        count <= processes[peer].sent[pid]
        for pid, process in processes.items()
        for peer, count in process.received.items()
    )
    assert all(p.incarnation == 1 for p in system.processes.values())


def test_computation_resumes_after_recovery():
    system, recovery, workload = build()
    checkpointed_run(system, workload)
    recovery.recover(0)
    system.sim.run(until=system.sim.now + 30.0)
    received_before = sum(
        p.app_state["messages_received"] for p in system.processes.values()
    )
    system.sim.run(until=system.sim.now + 100.0)
    workload.stop()
    system.run_until_quiescent()
    received_after = sum(
        p.app_state["messages_received"] for p in system.processes.values()
    )
    assert received_after > received_before
    assert not any(p.blocked for p in system.processes.values())


def test_ghost_messages_from_old_incarnation_dropped():
    system, recovery, workload = build(seed=7)
    checkpointed_run(system, workload)
    # a computation message (8 ms flight) is in the air when recovery
    # starts; the 0.4 ms rollback_request beats it to the destination,
    # so it arrives stamped with the dead incarnation
    system.processes[1].send_computation(2, payload="ghost")
    recovery.recover(3)
    system.sim.run(until=system.sim.now + 60.0)
    workload.stop()
    system.run_until_quiescent()
    assert system.metrics.value("stale_incarnation_dropped") >= 1


def test_ghost_message_arriving_after_resume_is_discarded():
    """Regression: a message sent by the *rolled-back* incarnation must be
    dropped even when it arrives after recovery has fully completed and
    computation has resumed — not only while processes are still blocked."""
    from repro.net.message import ComputationMessage

    system, recovery, workload = build(seed=13)
    checkpointed_run(system, workload)
    workload.stop()
    recovery.recover(0)
    system.sim.run(until=system.sim.now + 60.0)
    system.run_until_quiescent()
    assert system.sim.trace.count("recovery_complete") == 1
    assert all(not p.blocked for p in system.processes.values())
    assert system.processes[2].incarnation == 1

    # An in-flight message from before the rollback: stamped with the old
    # incarnation (0), still crossing the network when everyone resumed.
    receiver = system.processes[2]
    received_before = receiver.app_state["messages_received"]
    dropped_before = system.metrics.value("stale_incarnation_dropped")
    ghost = ComputationMessage(src_pid=1, dst_pid=2, payload="late-ghost")
    ghost.piggyback["inc"] = 0
    system.network.send_from_process(1, ghost)
    system.run_until_quiescent()

    assert system.metrics.value("stale_incarnation_dropped") == dropped_before + 1
    assert receiver.app_state["messages_received"] == received_before
    assert not receiver._deferred_receives

    # A message from the *current* incarnation still goes through.
    system.processes[1].send_computation(2, payload="fresh")
    system.run_until_quiescent()
    assert receiver.app_state["messages_received"] == received_before + 1


def test_recovery_aborts_active_checkpointing():
    system, recovery, workload = build(seed=9)
    workload.start()
    system.sim.run(until=100.0)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=system.sim.now + 0.5)  # mid-coordination
    recovery.recover(1)
    system.sim.run(until=system.sim.now + 60.0)
    assert system.sim.trace.count("abort") == 1
    assert system.sim.trace.count("recovery_complete") == 1


def test_concurrent_recovery_rejected():
    system, recovery, workload = build()
    checkpointed_run(system, workload)
    recovery.recover(0)
    with pytest.raises(ProtocolError):
        recovery.recover(1)


def test_second_recovery_bumps_incarnation():
    system, recovery, workload = build()
    checkpointed_run(system, workload)
    recovery.recover(0)
    system.sim.run(until=system.sim.now + 30.0)
    round2 = recovery.recover(1)
    system.sim.run(until=system.sim.now + 30.0)
    assert round2.incarnation == 2
    assert all(p.incarnation == 2 for p in system.processes.values())


def test_system_can_checkpoint_again_after_recovery():
    from repro.analysis.consistency import assert_line_consistent, latest_permanent_line

    system, recovery, workload = build(seed=11)
    checkpointed_run(system, workload)
    recovery.recover(0)
    system.sim.run(until=system.sim.now + 60.0)
    assert system.protocol.processes[2].initiate()
    system.sim.run(until=system.sim.now + 120.0)
    workload.stop()
    system.run_until_quiescent()
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def test_rollback_empties_the_channels_it_cuts():
    """A message in transit across the line is dropped by the rollback,
    so the receiver's count must become what the sender's checkpoint
    records as sent, not what its own checkpoint recorded as received:
    otherwise the one-message gap stays open and hides the orphan below."""
    from repro.analysis.consistency import (
        check_channel_counts,
        find_orphans,
        latest_permanent_line,
    )

    system = MobileSystem(SystemConfig(n_processes=3, seed=5), MutableCheckpointProtocol())
    recovery = DistributedRecovery(system)
    sender, receiver = system.processes[0], system.processes[1]

    def line():
        return latest_permanent_line(system.all_stable_storages(), system.processes)

    sender.send_computation(1)  # in flight while P0 alone checkpoints
    assert system.protocol.processes[0].initiate()
    system.sim.run_until_idle()
    cut = line()
    assert cut[0].sent == {1: 1} and cut[1].received == {}
    recovery.recover(0)
    system.sim.run_until_idle()
    assert receiver.received[0] == cut[0].sent[1] == 1

    # P0 checkpoints, then sends; P1 receives it, then checkpoints
    assert system.protocol.processes[0].initiate()
    system.sim.run_until_idle()
    before_send = line()[0]
    sender.send_computation(1)
    system.sim.run_until_idle()
    assert system.protocol.processes[1].initiate()
    system.sim.run_until_idle()
    orphaned = {**line(), 0: before_send}
    assert check_channel_counts(orphaned) is False
    assert len(find_orphans(system.sim.trace, orphaned)) == 1
