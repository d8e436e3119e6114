"""Tests for topology, routing, and broadcast."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnknownHostError
from repro.net.message import ComputationMessage, SystemMessage
from repro.net.network import MobileNetwork
from repro.net.params import NetworkParams
from repro.sim.kernel import Simulator


def build(n_mss=2, mhs_per_mss=2):
    sim = Simulator()
    net = MobileNetwork(sim, NetworkParams())
    inboxes = {}
    pid = 0
    for i in range(n_mss):
        mss = net.add_mss()
        for _ in range(mhs_per_mss):
            mh = net.add_mh(mss)
            inbox = []
            inboxes[pid] = inbox
            mh.attach_process(pid, inbox.append)
            pid += 1
    return sim, net, inboxes


def test_same_cell_delivery():
    sim, net, inboxes = build()
    msg = ComputationMessage(src_pid=0, dst_pid=1)
    net.send_from_process(0, msg)
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[1]] == [msg.msg_id]


def test_cross_cell_delivery():
    sim, net, inboxes = build()
    msg = ComputationMessage(src_pid=0, dst_pid=3)
    net.send_from_process(0, msg)
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[3]] == [msg.msg_id]
    assert sim.metrics.value("net.wired.routed") == 1


def test_per_pair_fifo_across_cells():
    sim, net, inboxes = build()
    msgs = [ComputationMessage(src_pid=0, dst_pid=3) for _ in range(5)]
    for m in msgs:
        net.send_from_process(0, m)
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[3]] == [m.msg_id for m in msgs]


def test_small_system_message_does_not_overtake_on_same_route():
    sim, net, inboxes = build()
    big = ComputationMessage(src_pid=0, dst_pid=3)
    small = SystemMessage(src_pid=0, dst_pid=3)
    net.send_from_process(0, big)
    net.send_from_process(0, small)
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[3]] == [big.msg_id, small.msg_id]


def test_unknown_destination_raises():
    sim, net, inboxes = build()
    msg = ComputationMessage(src_pid=0, dst_pid=99)
    with pytest.raises(UnknownHostError):
        net.send_from_process(0, msg)
        sim.run_until_idle()


def test_broadcast_reaches_everyone_except_sender():
    sim, net, inboxes = build()
    sent = net.broadcast_system(
        0, lambda pid: SystemMessage(src_pid=0, dst_pid=pid, subkind="commit")
    )
    sim.run_until_idle()
    assert sent == 3
    assert len(inboxes[0]) == 0
    for pid in (1, 2, 3):
        assert len(inboxes[pid]) == 1
        assert inboxes[pid][0].broadcast


def test_wired_channel_rejects_self_loop():
    sim, net, _ = build()
    mss = net.mss_list[0]
    with pytest.raises(ConfigurationError):
        net.wired_channel(mss, mss)


def test_wired_channels_cached():
    sim, net, _ = build()
    a, b = net.mss_list
    assert net.wired_channel(a, b) is net.wired_channel(a, b)
    assert net.wired_channel(a, b) is not net.wired_channel(b, a)


def test_process_ids_sorted():
    _, net, _ = build()
    assert net.process_ids == (0, 1, 2, 3)


def test_host_of_process_unknown():
    _, net, _ = build()
    with pytest.raises(UnknownHostError):
        net.host_of_process(42)


def test_mss_serving_mh_and_mss():
    _, net, _ = build()
    mh = net.mh_list[0]
    assert net.mss_serving(mh) is net.mss_list[0]
    assert net.mss_serving(net.mss_list[1]) is net.mss_list[1]


def test_paper_end_to_end_delay_single_cell():
    """In one cell: uplink 4 ms + downlink 4 ms for a 1 KB message."""
    sim = Simulator()
    net = MobileNetwork(sim, NetworkParams())
    mss = net.add_mss()
    arrival_times = []
    for pid in range(2):
        mh = net.add_mh(mss)
        mh.attach_process(pid, lambda m: arrival_times.append(sim.now))
    net.send_from_process(0, ComputationMessage(src_pid=0, dst_pid=1))
    sim.run_until_idle()
    assert arrival_times[0] == pytest.approx(2 * 0.004096)
