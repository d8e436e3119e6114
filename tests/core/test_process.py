"""Tests for the application-process runtime."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import SystemConfig
from repro.core.system import MobileSystem
from repro.net.message import ComputationMessage


def build(n=3):
    return MobileSystem(SystemConfig(n_processes=n, seed=5), MutableCheckpointProtocol())


def test_send_and_receive_count_the_channel():
    system = build()
    p0 = system.processes[0]
    p0.send_computation(1)
    assert p0.sent == {1: 1}
    assert p0.app_state["messages_sent"] == 1
    system.sim.run_until_idle()
    p1 = system.processes[1]
    assert p1.app_state["messages_received"] == 1
    assert p1.received == {0: 1} and not p1.sent


def test_a_sent_message_is_what_the_constructor_builds():
    """``send_computation`` fills a new message's slots by hand: every
    slot is set, each to what ``ComputationMessage(...)`` would set it
    to, and the sender's incarnation rides along."""
    system = build()
    p0 = system.processes[0]
    p0.incarnation = 2
    sent = []
    system.add_send_hook(lambda process, message: sent.append(message))
    p0.send_computation(1, "payload")
    (message,) = sent
    expected = ComputationMessage(
        src_pid=0, dst_pid=1, payload="payload", msg_id=message.msg_id
    )
    expected.inc = 2
    expected.pb = message.pb  # the protocol tags it on the send
    slots = [name for cls in type(expected).__mro__
             for name in getattr(cls, "__slots__", ())]
    assert type(message) is ComputationMessage
    assert {name: getattr(message, name) for name in slots} == {
        name: getattr(expected, name) for name in slots
    }


def test_trace_records_send_and_recv():
    system = build()
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    assert system.sim.trace.count("comp_send", src=0, dst=1) == 1
    assert system.sim.trace.count("comp_recv", src=0, dst=1) == 1


def test_trace_messages_can_be_disabled():
    system = MobileSystem(
        SystemConfig(n_processes=2, trace_messages=False), MutableCheckpointProtocol()
    )
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    assert system.sim.trace.count("comp_send") == 0


def test_blocked_process_defers_sends():
    system = build()
    p0 = system.processes[0]
    p0.block()
    p0.send_computation(1)
    system.sim.run_until_idle()
    assert system.processes[1].app_state["messages_received"] == 0
    p0.unblock()
    system.sim.run_until_idle()
    assert system.processes[1].app_state["messages_received"] == 1


def test_blocked_process_defers_receives():
    system = build()
    p1 = system.processes[1]
    p1.block()
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    assert p1.app_state["messages_received"] == 0
    p1.unblock()
    system.sim.run_until_idle()
    assert p1.app_state["messages_received"] == 1


def test_blocking_time_accounted():
    system = build()
    p0 = system.processes[0]
    p0.block()
    system.sim.schedule(10.0, p0.unblock)
    system.sim.run_until_idle()
    assert p0.total_blocked_time == pytest.approx(10.0)
    assert system.metrics.histogram("blocking_time").count == 1


def test_double_block_unblock_idempotent():
    system = build()
    p0 = system.processes[0]
    p0.block()
    p0.block()
    p0.unblock()
    p0.unblock()
    assert not p0.blocked


def test_capture_state_is_a_copy():
    system = build()
    p0 = system.processes[0]
    snapshot = p0.capture_state()
    p0.app_state["messages_sent"] = 99
    assert snapshot["messages_sent"] == 0


def test_restore_state():
    system = build()
    p0 = system.processes[0]
    snap_state = p0.capture_state()
    sent, received = p0.capture_channels()
    p0.send_computation(1)
    p0.restore_state(snap_state, sent, {2: 4})
    assert p0.app_state["messages_sent"] == 0
    assert p0.sent == {} and p0.received == {2: 4}
    p0.send_computation(1)
    assert p0.capture_channels() == ({1: 1}, {2: 4})


def test_system_messages_processed_while_blocked():
    """Blocking suspends computation, not the protocol (Koo-Toueg needs
    replies to flow while blocked)."""
    system = build()
    # P1 depends on P0 so the initiation stays open past the request.
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    p1 = system.processes[1]
    p1.block()
    assert system.protocol.processes[1].initiate()
    system.sim.run_until_idle()
    # the initiation committed even though P1's computation was blocked
    assert system.sim.trace.count("commit") == 1
