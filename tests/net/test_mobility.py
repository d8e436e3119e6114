"""Tests for handoff and the random-walk mobility driver."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.message import ComputationMessage
from repro.net.mobility import RandomWalkMobility, handoff
from repro.net.network import MobileNetwork
from repro.net.params import NetworkParams
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams


def build():
    sim = Simulator()
    net = MobileNetwork(sim, NetworkParams())
    mss_a, mss_b = net.add_mss("a"), net.add_mss("b")
    inboxes = {}
    for pid, mss in enumerate([mss_a, mss_a, mss_b]):
        mh = net.add_mh(mss)
        inbox = []
        inboxes[pid] = inbox
        mh.attach_process(pid, inbox.append)
    return sim, net, inboxes


def test_handoff_moves_cell():
    sim, net, _ = build()
    mh = net.mh_list[0]
    handoff(net, mh, net.mss_list[1])
    sim.run_until_idle()
    assert mh.mss is net.mss_list[1]
    assert net.fill_route(0) == (net.mss_list[1], mh.downlink.send)
    assert mh.name not in net.custody


def test_handoff_to_same_cell_is_noop():
    sim, net, _ = build()
    mh = net.mh_list[0]
    handoff(net, mh, net.mss_list[0])
    assert mh.mss is net.mss_list[0]


def test_messages_during_handoff_are_forwarded():
    """Traffic sent to an MH mid-handoff arrives after reattachment."""
    sim, net, inboxes = build()
    mh = net.mh_list[0]
    handoff(net, mh, net.mss_list[1], delay=1.0)
    # While the MH is between cells, another process sends to it.
    msg = ComputationMessage(src_pid=1, dst_pid=0)
    net.send_from_process(1, msg)
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[0]] == [msg.msg_id]
    forwarded = net.sim.trace.last("handoff_complete")
    assert forwarded["forwarded"] >= 1


def test_mh_sends_during_handoff_queue_in_outbox():
    sim, net, inboxes = build()
    mh = net.mh_list[0]
    handoff(net, mh, net.mss_list[1], delay=1.0)
    msg = ComputationMessage(src_pid=0, dst_pid=2)
    net.send_from_process(0, msg)  # no link right now
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[2]] == [msg.msg_id]


def test_routing_works_after_handoff():
    sim, net, inboxes = build()
    mh = net.mh_list[0]
    handoff(net, mh, net.mss_list[1])
    sim.run_until_idle()
    msg = ComputationMessage(src_pid=2, dst_pid=0)
    net.send_from_process(2, msg)
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[0]] == [msg.msg_id]


def test_handoff_of_disconnected_mh_rejected():
    sim, net, _ = build()
    mh = net.mh_list[0]
    mh.disconnected = True
    with pytest.raises(NetworkError):
        handoff(net, mh, net.mss_list[1])


def test_random_walk_requires_two_cells():
    sim = Simulator()
    net = MobileNetwork(sim, NetworkParams())
    net.add_mss()
    with pytest.raises(NetworkError):
        RandomWalkMobility(net, RandomStreams(1), 10.0)


def test_random_walk_performs_moves():
    sim, net, _ = build()
    mobility = RandomWalkMobility(net, RandomStreams(1), mean_residence_time=5.0)
    mobility.start()
    sim.run(until=200.0)
    mobility.stop()
    sim.run_until_idle()
    assert mobility.moves > 5
    assert sim.trace.count("handoff_start") == mobility.moves


def test_no_message_lost_under_churn():
    """Messages sent while MHs move around are all delivered exactly once."""
    sim, net, inboxes = build()
    mobility = RandomWalkMobility(net, RandomStreams(2), mean_residence_time=2.0)
    mobility.start()
    sent = []
    rng = RandomStreams(3)

    def send_one(i):
        src = rng.uniform_int("src", 0, 2)
        dst = (src + 1 + rng.uniform_int("dst", 0, 1)) % 3
        msg = ComputationMessage(src_pid=src, dst_pid=dst)
        sent.append((dst, msg.msg_id))
        net.send_from_process(src, msg)

    for i in range(100):
        sim.schedule(i * 1.0, send_one, i)
    sim.run(until=300.0)
    mobility.stop()
    sim.run_until_idle()
    delivered = {
        (pid, m.msg_id) for pid, inbox in inboxes.items() for m in inbox
    }
    assert delivered == set(sent)
