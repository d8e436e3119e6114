"""Tests for rollback recovery."""

from __future__ import annotations

import pytest

from repro.analysis.consistency import latest_permanent_line
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.recovery import DistributedRecovery
from tests.conftest import run_experiment


def test_recovery_line_has_one_checkpoint_per_process():
    system, _ = run_experiment(MutableCheckpointProtocol(), initiations=3)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert sorted(line) == sorted(system.processes)


def test_rollback_restores_state_and_counts():
    system, _ = run_experiment(MutableCheckpointProtocol(), initiations=3)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    round_ = DistributedRecovery(system).rollback()
    assert sorted(round_.line) == sorted(system.processes)
    for pid, record in line.items():
        process = system.processes[pid]
        assert process.app_state == record.state
        assert process.sent == record.sent
        # the channels are empty: each peer's recorded sends were received
        assert process.received == {
            peer: other.sent[pid] for peer, other in line.items() if other.sent.get(pid)
        }


def test_rollback_verifies_line_by_default():
    system, _ = run_experiment(MutableCheckpointProtocol(), initiations=3)
    round_ = DistributedRecovery(system).rollback()
    assert round_.lost_messages >= 0
    assert system.sim.trace.count("recovery_complete") == 1


def test_lost_messages_counts_post_line_deliveries():
    system, _ = run_experiment(
        MutableCheckpointProtocol(), initiations=3, mean_send_interval=5.0
    )
    report = DistributedRecovery(system).rollback()
    # messages were flowing after the last commit, so some work is lost
    assert report.lost_messages > 0
    total = system.sim.trace.count("comp_recv")
    assert report.lost_messages < total


def test_garbage_collection_keeps_single_permanent_per_process():
    """§6: at most one permanent checkpoint needs to be retained."""
    system, result = run_experiment(MutableCheckpointProtocol(), initiations=4)
    from repro.checkpointing.types import CheckpointKind

    for storage in system.all_stable_storages():
        for pid in system.processes:
            permanents = [
                r
                for r in storage.checkpoints_of(pid)
                if r.kind is CheckpointKind.PERMANENT
            ]
            assert len(permanents) <= 1


def test_rollback_after_mh_failure():
    """Volatile mutable checkpoints are lost; recovery still works from
    stable storage."""
    system, _ = run_experiment(MutableCheckpointProtocol(), initiations=3)
    victim = system.processes[2]
    victim.local_store.wipe()
    round_ = DistributedRecovery(system).rollback()
    assert 2 in sorted(round_.line)
