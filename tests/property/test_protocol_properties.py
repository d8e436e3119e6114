"""Property-based tests of the mutable-checkpoint protocol.

Hypothesis drives random interleavings of sends, deliveries, and
(serialized) initiations through the scenario harness; Theorem 1 says
every committed recovery line must be consistent no matter the order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.scenarios.harness import ScenarioHarness

N = 4


def _idle(h: ScenarioHarness) -> bool:
    """No coordination in progress: safe to start a new initiation."""
    if h.pending_system():
        return False
    return not any(getattr(p, "cp_state", False) for p in h.processes) and not any(
        getattr(p, "current", None) for p in h.processes
    )


def drive(h: ScenarioHarness, data: st.DataObject, steps: int) -> None:
    """Execute a random but well-formed action sequence."""
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
            index = data.draw(st.integers(0, len(h.pending) - 1))
            h.deliver(list(h.pending)[index])
        else:
            pid = data.draw(st.integers(0, N - 1))
            h.initiate(pid)
    h.deliver_everything()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 60))
def test_mutable_recovery_line_always_consistent(data, steps):
    """Theorem 1 under arbitrary message interleavings."""
    h = ScenarioHarness(N, MutableCheckpointProtocol(track_weights=True))
    drive(h, data, steps)
    h.assert_consistent()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 60))
def test_mutable_every_initiation_terminates(data, steps):
    """Theorem 2: once all messages are delivered, every initiation has
    committed (weight came back) and no process is left in cp_state."""
    h = ScenarioHarness(N, MutableCheckpointProtocol(track_weights=True))
    drive(h, data, steps)
    initiations = h.trace.count("initiation")
    commits = h.trace.count("commit")
    assert commits == initiations
    assert not any(p.cp_state for p in h.processes)
    assert not any(p.mutables for p in h.processes)
    assert not any(p.pending_tentative for p in h.processes)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 60))
def test_mutable_lemma1_at_most_one_tentative_per_initiation(data, steps):
    h = ScenarioHarness(N, MutableCheckpointProtocol())
    drive(h, data, steps)
    triggers = {r["trigger"] for r in h.trace.where("initiation")}
    for trigger in triggers:
        for pid in range(N):
            count = h.trace.count("tentative", trigger=trigger, pid=pid)
            assert count <= 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 50))
def test_koo_toueg_recovery_line_always_consistent(data, steps):
    h = ScenarioHarness(N, KooTouegProtocol())
    drive(h, data, steps)
    h.assert_consistent()
    # blocking always released once quiescent
    assert not any(h.blocked)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(5, 50))
def test_mutable_no_stable_write_without_coordination(data, steps):
    """Mutable checkpoints never hit stable storage unless promoted:
    stable-storage writes = initial N + tentatives (promoted included)."""
    h = ScenarioHarness(N, MutableCheckpointProtocol())
    drive(h, data, steps)
    assert h.storage.writes == N + h.trace.count("tentative")
