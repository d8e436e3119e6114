"""Tests for message types and edge routing paths."""

from __future__ import annotations

import pytest

from repro.errors import UnknownHostError
from repro.net.message import (
    CHECKPOINT_DATA_BYTES,
    COMPUTATION_MESSAGE_BYTES,
    SYSTEM_MESSAGE_BYTES,
    CheckpointDataMessage,
    ComputationMessage,
    SystemMessage,
)


class TestMessageTypes:
    def test_paper_sizes(self):
        assert COMPUTATION_MESSAGE_BYTES == 1024
        assert SYSTEM_MESSAGE_BYTES == 50
        assert CHECKPOINT_DATA_BYTES == 512 * 1024

    def test_kinds(self):
        assert ComputationMessage(src_pid=0, dst_pid=1).kind == "computation"
        assert SystemMessage(src_pid=0, dst_pid=1).kind == "system"
        assert CheckpointDataMessage(src_pid=0, dst_pid=None).kind == "checkpoint_data"

    def test_ids_unique_and_monotone(self):
        a = ComputationMessage(src_pid=0, dst_pid=1)
        b = SystemMessage(src_pid=0, dst_pid=1)
        c = CheckpointDataMessage(src_pid=0, dst_pid=None)
        assert c.msg_id > b.msg_id > a.msg_id

    def test_piggyback_independent_per_message(self):
        a = ComputationMessage(src_pid=0, dst_pid=1)
        b = ComputationMessage(src_pid=0, dst_pid=1)
        a.pb, a.inc = (5, None), 2
        assert b.pb is None and b.inc == 0

    def test_system_message_fields_default(self):
        m = SystemMessage(src_pid=0, dst_pid=1, subkind="request")
        assert m.fields == {}
        assert m.size_bytes == 50


class TestRoutingEdgeCases:
    def test_unreachable_fully_detached_mh(self):
        from repro.net.network import MobileNetwork
        from repro.sim.kernel import Simulator

        sim = Simulator()
        net = MobileNetwork(sim)
        mss = net.add_mss()
        mh_a = net.add_mh(mss)
        mh_b = net.add_mh(mss)
        mh_a.attach_process(0, lambda m: None)
        mh_b.attach_process(1, lambda m: None)
        # b vanishes without a disconnect record (e.g. stolen device)
        mh_b.detach()
        with pytest.raises(UnknownHostError):
            net.send_from_process(0, ComputationMessage(src_pid=0, dst_pid=1))
            sim.run_until_idle()

    def test_mss_rejects_a_message_for_an_unregistered_pid(self):
        from repro.net.network import MobileNetwork
        from repro.sim.kernel import Simulator

        sim = Simulator()
        net = MobileNetwork(sim)
        mss_a, mss_b = net.add_mss(), net.add_mss()
        mh = net.add_mh(mss_b)
        mh.attach_process(0, lambda m: None)
        with pytest.raises(UnknownHostError):
            mss_a.on_wired_arrival(ComputationMessage(src_pid=0, dst_pid=9))
