"""Unit tests of the mutable-checkpoint algorithm against the scripted
harness — one test per pseudocode behaviour of §3.3."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import CheckpointKind, Trigger
from repro.scenarios.harness import ScenarioHarness


def harness(n=3, **kwargs) -> ScenarioHarness:
    return ScenarioHarness(n, MutableCheckpointProtocol(track_weights=True, **kwargs))


class TestInitiation:
    def test_initiator_increments_csn_and_sets_trigger(self):
        h = harness()
        h.deliver(h.send(1, 0))   # dependency keeps the initiation open
        p = h.processes[0]
        assert h.initiate(0)
        assert p.csn[0] == 1
        assert p.own_trigger == Trigger(0, 1)
        assert p.cp_state

    def test_initiation_with_no_dependencies_commits_immediately(self):
        h = harness()
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("commit") == 1
        assert h.trace.count("tentative") == 1  # only the initiator

    def test_requests_go_to_direct_dependencies_only(self):
        h = harness(4)
        h.deliver(h.send(1, 0))
        h.deliver(h.send(2, 0))
        h.initiate(0)
        requests = h.pending_system("request")
        assert sorted(f.dst for f in requests) == [1, 2]

    def test_reinitiation_while_active_refused(self):
        h = harness()
        h.deliver(h.send(1, 0))
        assert h.initiate(0)
        assert not h.initiate(0)

    def test_initiator_r_and_sent_reset(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.send(0, 1)
        h.initiate(0)
        p = h.processes[0]
        assert not p.r
        assert not p.sent


class TestRequestReception:
    def test_fresh_dependency_takes_tentative(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver(h.pending_system("request")[0])
        p1 = h.processes[1]
        assert p1.csn[1] == 1
        assert p1.own_trigger == Trigger(0, 1)
        assert h.trace.count("tentative", pid=1) == 1

    def test_stale_request_ignored(self):
        """§3.1.3: old_csn > req_csn means the dependency is recorded."""
        h = harness()
        h.deliver(h.send(1, 0))   # dependency created at P1's csn 0
        h.initiate(1)             # P1 checkpoints on its own first
        h.deliver_all_system()
        before = h.trace.count("tentative", pid=1)
        h.initiate(0)             # request carries req_csn 0 < old_csn 1
        h.deliver_all_system()
        assert h.trace.count("tentative", pid=1) == before
        assert h.trace.count("commit") == 2

    def test_request_propagates_transitively(self):
        h = harness(4)
        h.deliver(h.send(2, 1))   # P1 depends on P2
        h.deliver(h.send(1, 0))   # P0 depends on P1
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("tentative") == 3

    def test_duplicate_request_returns_weight_without_checkpoint(self):
        h = harness(4)
        # Diamond: P0 depends on P1 and P2, both depend on P3.
        h.deliver(h.send(3, 1))
        h.deliver(h.send(3, 2))
        h.deliver(h.send(1, 0))
        h.deliver(h.send(2, 0))
        h.initiate(0)
        h.deliver_all_system()
        # P3 checkpointed once despite two paths (Lemma 1).
        assert h.trace.count("tentative", pid=3) == 1
        assert h.trace.count("commit") == 1

    def test_mr_suppresses_duplicate_requests(self):
        """§3.3.2: if MR says P_k was already covered, don't re-request."""
        h = harness(4)
        h.deliver(h.send(3, 1))
        h.deliver(h.send(3, 0))
        h.deliver(h.send(1, 0))
        h.initiate(0)
        # The initiator requests both P1 and P3 directly; P1's prop_cp
        # sees in MR that P3 was already requested with a csn at least
        # as fresh and stays quiet.
        h.deliver_all_system()
        requests_to_p3 = h.trace.count("sys_send", dst=3, subkind="request")
        assert requests_to_p3 == 1


class TestComputationMessages:
    def test_stale_csn_message_just_delivers(self):
        h = harness()
        m = h.send(1, 0)
        h.deliver(m)
        p0 = h.processes[0]
        assert 1 in p0.r
        assert h.app_state[0]["messages_received"] == 1
        assert len(h.local_stores[0]) == 0

    def test_tagged_message_with_sent_takes_mutable(self):
        h = harness()
        h.deliver(h.send(0, 1))   # P1 depends on P0: initiation stays open
        h.send(2, 0)              # P2 has sent this interval
        h.initiate(1)             # request to P0 still in flight
        m = h.send(1, 2)          # tagged message from the initiator
        h.deliver(m)
        p2 = h.processes[2]
        assert len(p2.mutables) == 1
        assert h.trace.count("mutable", pid=2) == 1

    def test_tagged_message_without_sent_takes_no_mutable(self):
        h = harness()
        h.deliver(h.send(0, 1))   # keep the initiation open
        h.initiate(1)
        m = h.send(1, 2)
        h.deliver(m)
        p2 = h.processes[2]
        assert not p2.mutables
        # but Condition 1 alone still marks the checkpointing state
        assert p2.cp_state
        assert p2.own_trigger == Trigger(1, 1)

    def test_untagged_higher_csn_message_takes_no_mutable(self):
        """Sender finished checkpointing before sending: no mutable."""
        h = harness()
        h.initiate(1)
        h.deliver_all_system()    # P1's initiation commits
        h.send(2, 0)              # P2 has sent (would satisfy condition 2)
        m = h.send(1, 2)          # untagged: P1's cp_state is 0 again
        h.deliver(m)
        assert not h.processes[2].mutables

    def test_commit_knowledge_prevents_mutable(self):
        """A tagged message arriving after the commit is harmless."""
        h = harness()
        h.send(2, 0)              # P2 sent this interval
        h.initiate(1)
        m = h.send(1, 2)          # tagged, in flight
        h.deliver_all_system()    # commit reaches P2 first
        h.deliver(m)
        assert not h.processes[2].mutables

    def test_no_second_mutable_for_same_trigger(self):
        h = harness(4)
        h.deliver(h.send(0, 1))   # keep the initiation open
        h.send(2, 0)
        h.initiate(1)
        m1 = h.send(1, 2)
        h.deliver(m1)
        assert len(h.processes[2].mutables) == 1
        h.send(2, 0)              # sent again
        m2 = h.send(1, 2)
        h.deliver(m2)
        assert len(h.processes[2].mutables) == 1  # still just one

    def test_mutable_saves_r_and_sent_context(self):
        h = harness()
        h.deliver(h.send(0, 2))   # P2's R[0] set
        h.deliver(h.send(0, 1))   # keep P1's initiation open
        h.send(2, 0)
        h.initiate(1)
        h.deliver(h.send(1, 2))
        p2 = h.processes[2]
        (mutable,) = p2.mutables.values()
        assert 0 in mutable.saved_r
        assert mutable.saved_sent
        assert 0 not in p2.r  # reset; r[1] set by delivery
        assert not p2.sent


class TestPromotionAndDiscard:
    def test_request_promotes_mutable(self):
        h = harness()
        h.deliver(h.send(2, 1))   # P1 depends on P2
        h.send(2, 0)              # P2 sent this interval
        h.initiate(1)             # request to P2 pending
        m = h.send(1, 2)          # tagged message overtakes the request
        h.deliver(m)
        assert len(h.processes[2].mutables) == 1
        h.deliver(h.pending_system("request")[0])
        assert not h.processes[2].mutables
        assert h.trace.count("mutable_promoted", pid=2) == 1
        h.deliver_all_system()
        assert h.is_consistent()

    def test_commit_discards_unpromoted_mutable_and_restores_context(self):
        h = harness()
        h.deliver(h.send(0, 2))
        h.deliver(h.send(0, 1))   # keep P1's initiation open
        h.send(2, 0)
        h.initiate(1)
        h.deliver(h.send(1, 2))   # mutable at P2
        p2 = h.processes[2]
        h.deliver_all_system()    # P1 commits; P2 discards
        assert not p2.mutables
        assert h.trace.count("mutable_discarded", pid=2) == 1
        # context restored: R[0] and sent are back
        assert 0 in p2.r
        assert p2.sent

    def test_promoted_checkpoint_becomes_permanent_on_commit(self):
        h = harness()
        h.deliver(h.send(2, 1))
        h.send(2, 0)
        h.initiate(1)
        h.deliver(h.send(1, 2))
        h.deliver_all_system()
        line = h.recovery_line()
        assert line[2].kind == CheckpointKind.PERMANENT
        assert line[2].trigger == Trigger(1, 1)


class TestTermination:
    def test_weight_returns_to_initiator(self):
        h = harness(5)
        for src in (1, 2, 3, 4):
            h.deliver(h.send(src, 0))
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("commit") == 1
        ledger = h.protocol.ledger
        assert not ledger.active

    def test_commit_broadcast_reaches_all(self):
        h = harness(4)
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        commits = h.trace.where("sys_send", subkind="commit")
        assert sorted(r["dst"] for r in commits) == [1, 2, 3]

    def test_every_process_inherits_at_most_one_request(self):
        """Lemma 1, structurally: one tentative per (process, trigger)."""
        h = harness(5)
        for src in (1, 2, 3, 4):
            h.deliver(h.send(src, 0))
        for src, dst in [(2, 1), (3, 2), (4, 3), (1, 4)]:
            h.deliver(h.send(src, dst))
        h.initiate(0)
        h.deliver_all_system()
        for pid in range(5):
            assert h.trace.count("tentative", pid=pid) <= 1


class TestAbort:
    def test_abort_discards_tentatives_and_restores_state(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver(h.pending_system("request")[0])
        p0 = h.processes[0]
        p1 = h.processes[1]
        assert p1.pending_tentative
        p0.abort_initiation()
        h.deliver_all_system()
        assert not p0.pending_tentative
        assert not p1.pending_tentative
        assert h.trace.count("abort") == 1
        assert h.trace.count("tentative_discarded") == 2
        # the recovery line is still the initial checkpoints
        line = h.recovery_line()
        assert all(rec.csn == 0 for rec in line.values())

    def test_abort_restores_dependency_for_retry(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.processes[0].abort_initiation()
        h.deliver_all_system()
        # Retrying the initiation re-requests P1.
        assert h.initiate(0)
        assert any(f.dst == 1 for f in h.pending_system("request"))
