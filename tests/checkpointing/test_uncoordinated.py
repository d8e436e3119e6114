"""Tests for the Acharya-Badrinath baseline and consistent-line search."""

from __future__ import annotations

import pytest

from repro.analysis.recovery_line import (
    checkpoint_histories,
    maximal_consistent_line,
)
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.checkpointing.uncoordinated import UncoordinatedProtocol
from repro.errors import InconsistentCheckpointError
from repro.scenarios.harness import ScenarioHarness
from tests.conftest import run_experiment


class TestABRule:
    def test_receive_after_send_forces_checkpoint(self):
        h = ScenarioHarness(3, UncoordinatedProtocol())
        h.send(0, 1)                         # P0 sent
        h.deliver(h.send(1, 0))              # ...then receives: checkpoint
        assert h.trace.count("tentative", pid=0) == 1

    def test_receive_without_send_takes_no_checkpoint(self):
        h = ScenarioHarness(3, UncoordinatedProtocol())
        h.deliver(h.send(1, 0))
        assert h.trace.count("tentative", pid=0) == 0

    def test_one_checkpoint_per_send_receive_alternation(self):
        """§6: interleaved send/receive -> checkpoints ~ messages / 2."""
        h = ScenarioHarness(2, UncoordinatedProtocol())
        for _ in range(10):
            h.deliver(h.send(0, 1))          # P1: receive (after its send)
            h.deliver(h.send(1, 0))          # P0: receive (after its send)
        # 20 messages, P0 and P1 each checkpoint ~10 times
        total = h.trace.count("tentative")
        assert total == pytest.approx(19, abs=1)

    def test_scheduled_initiation_checkpoints_locally(self):
        h = ScenarioHarness(2, UncoordinatedProtocol())
        assert h.initiate(0)
        assert h.trace.count("tentative", pid=0) == 1
        assert not h.pending_system()         # no coordination messages

    def test_history_is_kept(self):
        h = ScenarioHarness(2, UncoordinatedProtocol())
        for _ in range(3):
            h.initiate(0)
        perms = [
            r
            for r in h.storage.checkpoints_of(0)
            if r.kind is CheckpointKind.PERMANENT
        ]
        assert len(perms) == 4  # initial + 3 (no garbage collection)


class TestConsistentLineSearch:
    def _record(self, pid, ckpt_id, sent=None, received=None):
        return CheckpointRecord(
            pid=pid,
            csn=ckpt_id,
            kind=CheckpointKind.PERMANENT,
            time_taken=float(ckpt_id),
            sent=sent or {},
            received=received or {},
            ckpt_id=ckpt_id,
        )

    def test_consistent_newest_line_kept(self):
        histories = {
            0: [self._record(0, 1), self._record(0, 3, {1: 2}, {1: 1})],
            1: [self._record(1, 2), self._record(1, 4, {0: 1}, {0: 2})],
        }
        search = maximal_consistent_line(histories)
        assert search.rollback_depth == {0: 0, 1: 0}
        assert not search.domino

    def test_orphan_forces_single_rollback(self):
        histories = {
            0: [self._record(0, 1), self._record(0, 3, {1: 1})],
            1: [self._record(1, 2), self._record(1, 4, {}, {0: 2})],
        }
        search = maximal_consistent_line(histories)
        assert search.rollback_depth[1] == 1
        assert search.line[1].ckpt_id == 2

    def test_domino_cascade(self):
        """A chain of mutual receives forces cascading rollbacks."""
        histories = {
            0: [
                self._record(0, 1),
                self._record(0, 3, {1: 1}, {1: 1}),
                self._record(0, 5, {1: 2}, {1: 2}),
            ],
            1: [
                self._record(1, 2),
                self._record(1, 4, {0: 1}, {0: 2}),
                self._record(1, 6, {0: 2}, {0: 3}),
            ],
        }
        # 1@6 received 3 from P0, 0@5 sent 2 -> roll 1 back to 4; 0@5
        # received 2 from P1, 1@4 sent 1 -> roll 0 back to 3; 1@4
        # received 2, 0@3 sent 1 -> roll 1 back to 2; and 0 back to 1.
        search = maximal_consistent_line(histories)
        assert search.domino
        assert search.line[0].ckpt_id in (1, 3)
        assert search.total_rollback_depth >= 3

    def test_exhausted_history_raises(self):
        histories = {
            0: [self._record(0, 1, {}, {1: 5})],
            1: [self._record(1, 2)],
        }
        with pytest.raises(InconsistentCheckpointError):
            maximal_consistent_line(histories)


def run_uncoordinated(seed=42, mean_send_interval=10.0, horizon=600.0):
    """Timer-driven initiations are perpetually postponed by the AB
    rule's constant checkpoints (the §5.1 rescheduling applies to them
    too), so uncoordinated runs are bounded by time, not commits."""
    from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
    from repro.core.runner import ExperimentRunner
    from repro.core.system import MobileSystem
    from repro.workload.point_to_point import PointToPointWorkload

    config = SystemConfig(n_processes=8, seed=seed)
    system = MobileSystem(config, UncoordinatedProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=10_000, time_limit=horizon)
    )
    runner.run(max_events=10_000_000)
    workload.stop()
    system.run_until_quiescent()
    return system


class TestEndToEnd:
    def test_uncoordinated_checkpoint_rate_near_half_messages(self):
        system = run_uncoordinated()
        messages = system.sim.trace.count("comp_recv")
        checkpoints = len(system.sim.trace.where("tentative", reason="receive-after-send"))
        # §6: "the number of local checkpoints will be equal to half of
        # the number of computation messages" when interleaved; random
        # interleaving lands close to that.
        assert 0.3 < checkpoints / messages < 0.7

    def test_search_finds_consistent_line_for_uncoordinated(self):
        from repro.analysis.consistency import find_orphans

        system = run_uncoordinated(seed=7)
        search = maximal_consistent_line(
            checkpoint_histories(system.all_stable_storages(), system.processes)
        )
        assert find_orphans(system.sim.trace, search.line) == []

    def test_coordinated_never_needs_rollback_search(self):
        """The mutable algorithm's newest permanents are always the line."""
        system, _ = run_experiment(
            MutableCheckpointProtocol(), initiations=4, mean_send_interval=20.0
        )
        # keep history for the comparison
        # (gc already pruned; use what's there)
        histories = checkpoint_histories(
            system.all_stable_storages(), system.processes
        )
        search = maximal_consistent_line(histories)
        assert search.total_rollback_depth == 0
        assert not search.domino

    def test_uncoordinated_storage_cost_exceeds_coordinated(self):
        """§6: many checkpoints per process must be retained."""
        sys_u = run_uncoordinated(seed=9)
        sys_m, _ = run_experiment(
            MutableCheckpointProtocol(), initiations=3, mean_send_interval=10.0
        )
        stored_u = sum(len(s) for s in sys_u.all_stable_storages())
        stored_m = sum(len(s) for s in sys_m.all_stable_storages())
        assert stored_u > 3 * stored_m
