"""Tests for voluntary disconnection / reconnection (paper §2.2)."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, NotConnectedError
from repro.net.disconnect import DisconnectProxy, disconnect, reconnect
from repro.net.message import ComputationMessage, SystemMessage
from repro.net.network import MobileNetwork
from repro.net.params import NetworkParams
from repro.sim.kernel import Simulator


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


def test_disconnect_creates_record_at_mss():
    sim, net, _ = build()
    mh = net.mh_list[0]
    record = disconnect(net, mh, disconnect_checkpoint={"state": 1})
    assert net.custody[mh.name] is record
    assert record.holder is net.mss_list[0]
    assert mh.disconnected
    assert record.disconnect_checkpoint == {"state": 1}


def test_double_disconnect_rejected():
    sim, net, _ = build()
    mh = net.mh_list[0]
    disconnect(net, mh, None)
    with pytest.raises(NetworkError):
        disconnect(net, mh, None)


def test_send_while_disconnected_rejected():
    sim, net, _ = build()
    mh = net.mh_list[0]
    disconnect(net, mh, None)
    with pytest.raises(NotConnectedError):
        mh.send(ComputationMessage(src_pid=0, dst_pid=1))


def test_computation_messages_buffered_and_replayed_on_reconnect():
    sim, net, inboxes = build()
    mh = net.mh_list[0]
    record = disconnect(net, mh, None)
    msgs = [ComputationMessage(src_pid=1, dst_pid=0) for _ in range(3)]
    for m in msgs:
        net.send_from_process(1, m)
    sim.run_until_idle()
    assert inboxes[0] == []
    assert [m.msg_id for m in record.buffered] == [m.msg_id for m in msgs]
    reconnect(net, mh, net.mss_list[1])  # reconnect at a DIFFERENT cell
    sim.run_until_idle()
    assert [m.msg_id for m in inboxes[0]] == [m.msg_id for m in msgs]
    assert mh.mss is net.mss_list[1]


def test_cross_cell_traffic_reaches_disconnect_holder():
    sim, net, inboxes = build()
    mh = net.mh_list[0]
    record = disconnect(net, mh, None)
    msg = ComputationMessage(src_pid=2, dst_pid=0)  # from the other cell
    net.send_from_process(2, msg)
    sim.run_until_idle()
    assert [m.msg_id for m in record.buffered] == [msg.msg_id]


def test_reconnect_without_disconnect_rejected():
    sim, net, _ = build()
    with pytest.raises(NetworkError):
        reconnect(net, net.mh_list[0], net.mss_list[1])


def test_proxy_consumes_system_messages():
    class CountingProxy(DisconnectProxy):
        def __init__(self):
            self.seen = []

        def handle_system_message(self, mss, record, message):
            self.seen.append(message.subkind)
            return True

    sim, net, inboxes = build()
    mh = net.mh_list[0]
    proxy = CountingProxy()
    record = disconnect(net, mh, None, proxy=proxy)
    net.send_from_process(1, SystemMessage(src_pid=1, dst_pid=0, subkind="request"))
    sim.run_until_idle()
    assert proxy.seen == ["request"]
    assert record.buffered == []


def test_proxy_decline_buffers_message():
    class DecliningProxy(DisconnectProxy):
        def handle_system_message(self, mss, record, message):
            return False

    sim, net, _ = build()
    mh = net.mh_list[0]
    record = disconnect(net, mh, None, proxy=DecliningProxy())
    net.send_from_process(1, SystemMessage(src_pid=1, dst_pid=0, subkind="request"))
    sim.run_until_idle()
    assert len(record.buffered) == 1


def test_disconnect_records_last_downlink_sn():
    sim, net, inboxes = build()
    mh = net.mh_list[0]
    net.send_from_process(1, ComputationMessage(src_pid=1, dst_pid=0))
    sim.run_until_idle()
    record = disconnect(net, mh, None)
    assert record.last_recv_sn == 1
