"""Unit and integration tests for the Koo-Toueg blocking baseline."""

from __future__ import annotations

import pytest

from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.types import CheckpointKind, Trigger
from repro.scenarios.harness import ScenarioHarness
from tests.conftest import run_experiment


def harness(n=3, **kwargs) -> ScenarioHarness:
    return ScenarioHarness(n, KooTouegProtocol(**kwargs))


class TestProtocolLogic:
    def test_initiator_blocks_until_commit(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        assert h.blocked[0]
        h.deliver_all_system()
        assert not h.blocked[0]

    def test_participant_blocks_between_tentative_and_commit(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver(h.pending_system("request")[0])
        assert h.blocked[1]
        h.deliver_all_system()
        assert not h.blocked[1]

    def test_tree_propagation(self):
        h = harness(4)
        h.deliver(h.send(2, 1))
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("tentative") == 3
        assert h.trace.count("commit") == 1
        line = h.recovery_line()
        assert all(
            rec.kind == CheckpointKind.PERMANENT for rec in line.values()
        )

    def test_stale_dependency_not_requested_to_checkpoint(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(1)              # P1 checkpoints on its own
        h.deliver_all_system()
        h.initiate(0)              # dependency on P1 is now stale
        h.deliver_all_system()
        assert h.trace.count("tentative", pid=1) == 1

    def test_duplicate_request_in_diamond(self):
        h = harness(4)
        h.deliver(h.send(3, 1))
        h.deliver(h.send(3, 2))
        h.deliver(h.send(1, 0))
        h.deliver(h.send(2, 0))
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("tentative", pid=3) == 1

    def test_unwilling_process_aborts_whole_checkpointing(self):
        protocol = KooTouegProtocol(willing=lambda pid: pid != 1)
        h = ScenarioHarness(3, protocol)
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("abort") == 1
        assert h.trace.count("permanent", pid=0) == 1  # only the initial one
        line = h.recovery_line()
        assert all(rec.csn == 0 for rec in line.values())
        assert not h.blocked[0]

    def test_late_request_of_an_aborted_tree_is_refused(self):
        """A second parent's request arriving after the abort must not
        re-enlist the process: on a dependency cycle (1 <-> 2 here) the
        re-issued requests and the aborts chasing them never die out."""
        h = ScenarioHarness(4, KooTouegProtocol(willing=lambda pid: pid != 3))
        for src, dst in [(1, 0), (2, 0), (3, 0), (2, 1), (1, 2)]:
            h.deliver(h.send(src, dst))
        h.initiate(0)
        request = {f.dst: f for f in h.pending_system("request")}
        h.deliver(request[2])                       # 2 joins under 0, asks 1
        h.deliver(request[3])                       # 3 refuses
        h.deliver(h.pending_system("reply")[0])     # 0 aborts the tree
        h.deliver(next(f for f in h.pending_system("abort") if f.dst == 2))
        h.deliver(request[1])                       # 1 joins late, asks 2
        h.deliver_all_system()
        assert h.trace.count("abort") == 1
        # each of 0, 1, 2 joined the tree exactly once
        assert h.trace.count("tentative") == h.trace.count("tentative_discarded") == 3
        assert not any(h.blocked[pid] for pid in range(4))

    def test_unwilling_initiator_refuses_to_start(self):
        protocol = KooTouegProtocol(willing=lambda pid: pid != 0)
        h = ScenarioHarness(3, protocol)
        assert not h.initiate(0)

    def test_consistency_after_commit(self):
        h = harness(4)
        for src, dst in [(1, 0), (2, 1), (3, 2)]:
            h.deliver(h.send(src, dst))
        h.initiate(0)
        h.deliver_all_system()
        h.assert_consistent()


class TestSimulation:
    def test_blocking_time_positive(self):
        system, result = run_experiment(KooTouegProtocol(), initiations=3)
        assert result.total_blocked_time > 0.0
        # blocked/unblocked trace records pair up
        assert system.sim.trace.count("blocked") == system.sim.trace.count("unblocked")

    def test_min_process_equals_mutable(self):
        """Theorem 3's empirical check: same participant sets as mutable."""
        from repro.checkpointing.mutable import MutableCheckpointProtocol

        _, kt = run_experiment(KooTouegProtocol(), seed=99, initiations=4)
        _, mu = run_experiment(MutableCheckpointProtocol(), seed=99, initiations=4)
        kt_counts = [s.tentative_count for s in kt.initiations]
        mu_counts = [s.tentative_count for s in mu.initiations]
        assert kt_counts == mu_counts

    def test_deferred_computation_replayed_after_commit(self):
        system, result = run_experiment(
            KooTouegProtocol(), initiations=3, mean_send_interval=5.0
        )
        # No deferred message may be lost: every send is eventually recv'd
        # (quiescence drained the queues).
        sends = system.sim.trace.count("comp_send")
        recvs = system.sim.trace.count("comp_recv")
        assert recvs <= sends
        assert sends - recvs <= system.config.n_processes  # only in-flight tail
