"""Edge-case tests of mutable-protocol internals: MR semantics, precopy
mode, stale-message handling, and §7-deviation regressions."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import MREntry, Trigger
from repro.scenarios.harness import ScenarioHarness


def harness(n=4, **kwargs):
    return ScenarioHarness(n, MutableCheckpointProtocol(**kwargs))


class TestMRSemantics:
    def test_mr_records_only_sent_requests(self):
        """Regression for DESIGN.md §7.3: csn knowledge from a process
        that never requested P_k must not inflate MR[k]."""
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        request = h.pending_system("request")[0]
        mr = request.message.fields["mr"]
        # only the initiator (self-marker) and P1 (requested) are marked;
        # nothing is written for the others
        assert mr[0].r and mr[1].r
        assert sorted(mr) == [0, 1]
        h.deliver_everything()

    def test_initiator_self_marker_prevents_self_requests(self):
        h = harness()
        # circular dependency: P0 <-> P1
        h.deliver(h.send(1, 0))
        h.deliver(h.send(0, 1))
        h.initiate(0)
        h.deliver_all_system()
        # P1's prop_cp must not request the initiator afresh
        assert h.trace.count("sys_send", dst=0, subkind="request") == 0
        assert h.trace.count("tentative", pid=0) == 1
        h.assert_consistent()

    def test_decline_does_not_update_csn(self):
        """Regression for DESIGN.md §7.4: a declined request must not
        inflate csn[from], or later tagged messages are unprotected."""
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(1)           # P1 takes its own checkpoint first
        h.deliver_all_system()
        h.deliver(h.send(0, 2))  # keep P0's initiation open via P2? no:
        h.initiate(0)            # request to P1 is stale -> declined
        p1 = h.processes[1]
        before = p1.csn[0]
        for flight in h.pending_system("request"):
            if flight.dst == 1:
                h.deliver(flight)
        assert p1.csn[0] == before
        h.deliver_everything()
        h.assert_consistent()


class TestPrecopyMode:
    def test_precopy_runs_and_stays_consistent(self):
        h = harness(reply_after_transfer=False)
        for src, dst in [(1, 0), (2, 1), (3, 2)]:
            h.deliver(h.send(src, dst))
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("commit") == 1
        assert h.trace.count("tentative") == 4
        h.assert_consistent()


class TestStaleMessages:
    def test_stale_request_after_abort_is_refused(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        request = h.pending_system("request")[0]
        h.processes[0].abort_initiation()
        # the abort broadcast lands first...
        for flight in list(h.pending_system("abort")):
            h.deliver(flight)
        # ...then the stale request arrives
        h.deliver(request)
        assert not h.processes[1].pending_tentative
        h.deliver_everything()
        assert h.trace.count("tentative", pid=1) == 0

    def test_stale_reply_after_abort_is_dropped(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver(h.pending_system("request")[0])  # P1 checkpoints, replies
        reply = h.pending_system("reply")[0]
        h.processes[0].abort_initiation()
        h.deliver(reply)  # arrives after the abort
        assert h.trace.count("stale_reply") == 1
        h.deliver_everything()
        assert h.processes[0].initiating is None

    def test_tagged_sent_cleared_on_abort(self):
        h = harness(commit_mode="update")
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.send(0, 2)  # tagged; registered in tagged_sent
        p0 = h.processes[0]
        assert p0.tagged_sent
        p0.abort_initiation()
        assert not p0.tagged_sent
        h.deliver_everything()


class TestDoubleParticipation:
    def test_second_initiation_by_same_process(self):
        h = harness()
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        h.deliver(h.send(1, 0))   # fresh dependency
        h.initiate(0)
        h.deliver_all_system()
        assert h.trace.count("commit") == 2
        assert h.trace.count("tentative", pid=0) == 2
        assert h.trace.count("tentative", pid=1) == 2
        h.assert_consistent()

    def test_triggers_carry_increasing_inums(self):
        h = harness()
        triggers = []
        h.protocol.add_commit_listener(triggers.append)
        for _ in range(3):
            h.initiate(2)
            h.deliver_all_system()
        assert [t.inum for t in triggers] == [1, 2, 3]
        assert all(t.pid == 2 for t in triggers)


class TestOverlapCpState:
    def test_bystander_commit_keeps_concurrent_wave_tagged(self):
        """Regression for DESIGN.md §7.5: a commit of initiation A
        arriving at the initiator of a concurrent initiation B must not
        clear B's cp_state — B's later sends would go out untagged."""
        h = harness()
        h.deliver(h.send(1, 0))      # P0 depends on P1
        h.initiate(0)                # wave B: request to P1 in flight
        h.initiate(2)                # wave A: no dependencies, commits
        commits = h.pending_system("commit")
        assert commits               # A's broadcast is in flight
        for flight in commits:
            h.deliver(flight)
        p0 = h.processes[0]
        assert p0.cp_state           # still inside wave B
        m = h.send(0, 1)             # post-checkpoint send stays tagged
        assert m.message.protocol_tags()[1] == p0.own_trigger
        h.deliver(m)
        h.deliver_everything()
        h.assert_consistent()

    def test_receiver_mutable_survives_bystander_commit(self):
        """The §2.4 race behind §7.5: P0's post-checkpoint tagged send
        must still force P1's mutable checkpoint after an unrelated
        commit, or P1's later tentative records an orphan receive."""
        h = harness()
        h.deliver(h.send(1, 0))      # P0 depends on P1
        h.deliver(h.send(1, 3))      # P1 has sent this interval
        h.initiate(0)                # wave B
        h.initiate(2)                # wave A commits immediately
        for flight in h.pending_system("commit"):
            h.deliver(flight)
        m = h.send(0, 1)             # reaches P1 before B's request
        h.deliver(m)
        assert h.processes[1].mutables
        h.deliver_everything()
        h.assert_consistent()


def test_mr_entry_is_immutable():
    entry = MREntry(3, True)
    with pytest.raises(AttributeError):
        entry.csn = 5
