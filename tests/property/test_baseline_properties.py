"""Property-based tests for the baseline protocols.

Same random-interleaving driver as the mutable-protocol properties, per
baseline invariant:

* Elnozahy: consistency + all-N participation per initiation;
* Chandy-Lamport: consistency under *FIFO* delivery (the algorithm's
  stated requirement) + exactly one snapshot per process;
* uncoordinated AB rule: every checkpoint interval has the shape
  (receives)(sends) — the rule's actual contract.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.recovery_line import maximal_consistent_line
from repro.checkpointing.chandy_lamport import ChandyLamportProtocol
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.types import CheckpointKind
from repro.checkpointing.uncoordinated import UncoordinatedProtocol
from repro.scenarios.harness import ScenarioHarness

N = 4


def _idle(h: ScenarioHarness) -> bool:
    if h.pending_system():
        return False
    for p in h.processes:
        if getattr(p, "_active", None) is not None:
            return False
        if getattr(p, "_trigger", None) is not None:
            return False
    return True


def _fifo_pick(h: ScenarioHarness, data) -> object:
    """Oldest pending flight of a randomly chosen (src, dst) pair."""
    pairs = {}
    for flight in h.pending:
        key = (flight.message.src_pid, flight.dst)
        pairs.setdefault(key, flight)
    keys = sorted(pairs)
    index = data.draw(st.integers(0, len(keys) - 1))
    return pairs[keys[index]]


def drive(h, data, steps, fifo, initiator_pool):
    for _ in range(steps):
        actions = ["send"]
        if h.pending:
            actions.append("deliver")
        if _idle(h):
            actions.append("initiate")
        action = data.draw(st.sampled_from(actions))
        if action == "send":
            src = data.draw(st.integers(0, N - 1))
            dst = data.draw(st.integers(0, N - 2))
            if dst >= src:
                dst += 1
            h.send(src, dst)
        elif action == "deliver":
            if fifo:
                h.deliver(_fifo_pick(h, data))
            else:
                index = data.draw(st.integers(0, len(h.pending) - 1))
                h.deliver(list(h.pending)[index])
        else:
            index = data.draw(st.integers(0, len(initiator_pool) - 1))
            h.initiate(initiator_pool[index])
    while h.pending:
        if fifo:
            # deterministic FIFO drain: first pair in sorted order
            pairs = {}
            for flight in h.pending:
                key = (flight.message.src_pid, flight.dst)
                pairs.setdefault(key, flight)
            h.deliver(pairs[sorted(pairs)[0]])
        else:
            h.deliver_everything()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 50))
def test_elnozahy_consistent_and_all_process(data, steps):
    h = ScenarioHarness(N, ElnozahyProtocol(coordinator=0))
    drive(h, data, steps, fifo=False, initiator_pool=[0])
    h.assert_consistent()
    for record in h.trace.where("commit"):
        trigger = record["trigger"]
        assert h.trace.count("tentative", trigger=trigger) == N


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 50))
def test_chandy_lamport_consistent_under_fifo(data, steps):
    h = ScenarioHarness(N, ChandyLamportProtocol())
    drive(h, data, steps, fifo=True, initiator_pool=list(range(N)))
    h.assert_consistent()
    for record in h.trace.where("commit"):
        trigger = record["trigger"]
        assert h.trace.count("tentative", trigger=trigger) == N


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 60))
def test_ab_rule_interval_shape(data, steps):
    """The AB rule's actual contract: within every checkpoint interval
    of a process, all its receives precede all its sends. (Property
    testing refuted the stronger folklore claim that rollback is bounded
    to one checkpoint — a sends-only process can invalidate several of a
    correspondent's checkpoints.)"""
    h = ScenarioHarness(N, UncoordinatedProtocol())
    for _ in range(steps):
        actions = ["send"]
        if h.pending:
            actions.append("deliver")
        actions.append("initiate")
        action = data.draw(st.sampled_from(actions))
        if action == "send":
            src = data.draw(st.integers(0, N - 1))
            dst = data.draw(st.integers(0, N - 2))
            if dst >= src:
                dst += 1
            h.send(src, dst)
        elif action == "deliver":
            index = data.draw(st.integers(0, len(h.pending) - 1))
            h.deliver(list(h.pending)[index])
        else:
            h.initiate(data.draw(st.integers(0, N - 1)))
    h.deliver_everything()
    # replay each process's event sequence; 'sent' must reset before any
    # receive is processed after a send
    sent_since_ckpt = {pid: False for pid in range(N)}
    for record in h.trace:
        if record.kind == "comp_send":
            sent_since_ckpt[record["src"]] = True
        elif record.kind == "tentative":
            sent_since_ckpt[record["pid"]] = False
        elif record.kind == "comp_recv":
            assert not sent_since_ckpt[record["dst"]], (
                f"receive after send within one interval at p{record['dst']}"
            )
    # and the search always terminates in a consistent line
    histories = {}
    for pid in range(N):
        histories[pid] = [
            r
            for r in h.storage.checkpoints_of(pid)
            if r.kind is CheckpointKind.PERMANENT
        ]
    search = maximal_consistent_line(histories)
    assert search.total_rollback_depth >= 0
