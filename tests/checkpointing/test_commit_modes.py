"""Tests for the §3.3.5 second-phase options (broadcast / update / auto)."""

from __future__ import annotations

import random

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.errors import ProtocolError
from repro.scenarios.harness import ScenarioHarness
from tests.conftest import run_experiment


def harness(mode, n=4, **kwargs):
    return ScenarioHarness(
        n, MutableCheckpointProtocol(commit_mode=mode, **kwargs)
    )


class TestUpdateMode:
    def test_commit_unicast_to_repliers_only(self):
        h = harness("update")
        h.deliver(h.send(1, 0))    # only P1 depends
        h.initiate(0)
        h.deliver_all_system()
        commits = h.trace.where("sys_send", subkind="commit")
        assert sorted(r["dst"] for r in commits) == [1]
        assert h.trace.count("commit") == 1

    def test_broadcast_mode_reaches_everyone(self):
        h = harness("broadcast")
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        commits = h.trace.where("sys_send", subkind="commit")
        assert sorted(r["dst"] for r in commits) == [1, 2, 3]

    def test_clear_wave_reaches_tagged_processes(self):
        """A process that only saw a tagged message (no request) is
        cleared through the sender's tagged_sent history."""
        h = harness("update")
        h.deliver(h.send(0, 1))    # P1 depends on P0: initiation stays open
        h.send(2, 0)               # P2 has sent this interval
        h.initiate(1)
        m = h.send(1, 2)           # tagged: P2 will take a mutable
        h.deliver(m)
        assert h.processes[2].mutables
        h.deliver_all_system()     # commit (unicast) + clear wave
        assert not h.processes[2].mutables
        assert not h.processes[2].cp_state
        assert h.trace.count("mutable_discarded", pid=2) == 1

    def test_clear_wave_is_recursive(self):
        """Tagged state two hops away from any replier is still cleared."""
        h = harness("update", n=5)
        h.deliver(h.send(0, 1))    # keep initiation open
        h.send(2, 0)               # P2 sent this interval
        h.send(3, 0)               # P3 sent this interval
        h.initiate(1)
        h.deliver(h.send(1, 2))    # P2 takes a mutable (tagged by P1)
        h.deliver(h.send(2, 3))    # P3 takes a mutable (tagged by P2!)
        assert h.processes[3].mutables
        h.deliver_all_system()
        assert not h.processes[2].mutables
        assert not h.processes[3].mutables

    def test_recovery_line_consistent(self):
        h = harness("update")
        for src, dst in [(1, 0), (2, 1), (3, 2)]:
            h.deliver(h.send(src, dst))
        h.initiate(0)
        h.deliver_all_system()
        h.assert_consistent()


class TestAutoMode:
    """At 6 processes the threshold is 3: three repliers still get a
    unicast commit, four get a broadcast that also reaches P5."""

    def test_few_repliers_use_unicast(self):
        h = harness("auto", n=6)
        for src in (1, 2, 3):
            h.deliver(h.send(src, 0))
        h.initiate(0)
        h.deliver_all_system()
        commits = h.trace.where("sys_send", subkind="commit")
        assert sorted(r["dst"] for r in commits) == [1, 2, 3]

    def test_many_repliers_use_broadcast(self):
        h = harness("auto", n=6)
        for src in (1, 2, 3, 4):
            h.deliver(h.send(src, 0))
        h.initiate(0)
        h.deliver_all_system()
        commits = h.trace.where("sys_send", subkind="commit")
        assert sorted(r["dst"] for r in commits) == [1, 2, 3, 4, 5]

    def test_default_threshold_is_half_the_system(self):
        protocol = MutableCheckpointProtocol(commit_mode="auto")
        ScenarioHarness(6, protocol)
        assert protocol.update_threshold == 3


def test_invalid_mode_rejected():
    with pytest.raises(ProtocolError):
        MutableCheckpointProtocol(commit_mode="multicast")


def test_update_mode_full_simulation_consistent():
    from repro.analysis.consistency import assert_line_consistent, latest_permanent_line

    system, result = run_experiment(
        MutableCheckpointProtocol(commit_mode="update"),
        initiations=4,
        mean_send_interval=10.0,
    )
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    assert result.counters.get("broadcasts", 0) == 0


def test_update_mode_random_fifo_interleavings_consistent():
    """Property-style: update mode under random FIFO delivery orders."""

    def fifo_pick(h, rng):
        pairs = {}
        for flight in h.pending:
            key = (flight.message.src_pid, flight.dst)
            pairs.setdefault(key, flight)
        return pairs[rng.choice(sorted(pairs))]

    for seed in range(40):
        rng = random.Random(seed)
        h = harness("update", n=4)
        for _ in range(60):
            actions = ["send"]
            if h.pending:
                actions.append("deliver")
            if not h.pending_system() and not any(p.cp_state for p in h.processes):
                actions.append("initiate")
            action = rng.choice(actions)
            if action == "send":
                src = rng.randrange(4)
                dst = rng.randrange(3)
                if dst >= src:
                    dst += 1
                h.send(src, dst)
            elif action == "deliver":
                h.deliver(fifo_pick(h, rng))
            else:
                h.initiate(rng.randrange(4))
        while h.pending:
            h.deliver(fifo_pick(h, rng))
        h.assert_consistent()
        assert not any(p.mutables or p.cp_state for p in h.processes)
