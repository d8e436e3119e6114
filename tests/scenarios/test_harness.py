"""Tests for the scripted scenario harness itself."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.errors import ProtocolError
from repro.scenarios.harness import ScenarioHarness


def harness(n=3):
    return ScenarioHarness(n, MutableCheckpointProtocol())


def test_send_stays_in_flight_until_delivered():
    h = harness()
    m = h.send(0, 1)
    assert m in h.pending
    assert h.app_state[1]["messages_received"] == 0
    h.deliver(m)
    assert h.app_state[1]["messages_received"] == 1
    assert m.delivered


def test_double_delivery_rejected():
    h = harness()
    m = h.send(0, 1)
    h.deliver(m)
    with pytest.raises(ProtocolError):
        h.deliver(m)


def test_self_message_rejected():
    h = harness()
    with pytest.raises(ProtocolError):
        h.send(0, 0)


def test_channel_counts_track_sends_and_receives():
    h = harness()
    h.deliver(h.send(0, 1))
    h.send(1, 2)
    assert (h.sent[0], h.received[1]) == ({1: 1}, {0: 1})
    assert (h.sent[1], h.received[2]) == ({2: 1}, {})


def test_pending_filters():
    h = harness()
    h.send(0, 1)
    h.deliver(h.send(1, 0))
    h.initiate(0)
    assert len(h.pending_comp()) == 1
    assert len(h.pending_system("request")) == 1
    assert h.pending_system("commit") == []


def test_deliver_all_system_quiesces_coordination():
    h = harness()
    h.deliver(h.send(1, 0))
    h.initiate(0)
    delivered = h.deliver_all_system()
    assert delivered > 0
    assert h.pending_system() == []
    assert h.trace.count("commit") == 1


def test_deliver_everything_empties_pool():
    h = harness()
    h.send(0, 1)
    h.send(1, 2)
    h.deliver_everything()
    assert not h.pending


def test_initial_recovery_line_consistent():
    h = harness()
    h.assert_consistent()
    line = h.recovery_line()
    assert all(rec.csn == 0 for rec in line.values())


def test_clock_monotone():
    h = harness()
    t0 = h.clock
    h.send(0, 1)
    assert h.clock > t0
