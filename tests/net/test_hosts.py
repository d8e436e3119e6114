"""Tests for MH/MSS host behaviour: attachment, doze mode, storage hook."""

from __future__ import annotations

import pytest

from repro.checkpointing.storage import StableStorage
from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.errors import UnknownHostError
from repro.net.message import CheckpointDataMessage, ComputationMessage
from repro.net.network import MobileNetwork
from repro.net.params import NetworkParams
from repro.sim.kernel import Simulator


def build(params=None):
    sim = Simulator()
    net = MobileNetwork(sim, params or NetworkParams())
    mss = net.add_mss()
    mss.stable_storage = StableStorage()
    mh = net.add_mh(mss)
    inbox = []
    mh.attach_process(0, inbox.append)
    return sim, net, mss, mh, inbox


def test_attach_duplicate_pid_rejected():
    sim, net, mss, mh, _ = build()
    with pytest.raises(ValueError):
        mh.attach_process(0, lambda m: None)


def test_deliver_to_unknown_process_rejected():
    sim, net, mss, mh, _ = build()
    with pytest.raises(UnknownHostError):
        mh.deliver_to_process(ComputationMessage(src_pid=1, dst_pid=42))


def test_doze_mode_wakes_on_message():
    sim, net, mss, mh, inbox = build()
    peer = net.add_mh(mss)
    peer.attach_process(1, lambda m: None)
    mh.doze()
    assert mh.dozing
    net.send_from_process(1, ComputationMessage(src_pid=1, dst_pid=0))
    sim.run_until_idle()
    assert not mh.dozing
    assert mh.wakeups == 1
    assert len(inbox) == 1


def test_checkpoint_data_stored_at_mss():
    sim, net, mss, mh, _ = build()
    record = CheckpointRecord(
        pid=0, csn=1, kind=CheckpointKind.TENTATIVE, time_taken=0.0, ckpt_id=0
    )
    saved = []
    data = CheckpointDataMessage(src_pid=0, dst_pid=None, checkpoint_ref=record)
    data.on_stored = lambda: saved.append(sim.now)
    mh.transfer_checkpoint_data(data)
    sim.run_until_idle()
    assert mss.stable_storage.checkpoints_of(0) == [record]
    # 512 KB at 2 Mbps = 2.097 s (paper's "about 2 s")
    assert saved[0] == pytest.approx(512 * 1024 * 8 / 2_000_000)


def test_checkpoint_transfers_serialize_on_shared_cell_medium():
    sim, net, mss, mh, _ = build()
    mh2 = net.add_mh(mss)
    mh2.attach_process(1, lambda m: None)
    done = []
    for i, host in enumerate((mh, mh2)):
        record = CheckpointRecord(
            pid=i, csn=1, kind=CheckpointKind.TENTATIVE, time_taken=0.0, ckpt_id=0
        )
        data = CheckpointDataMessage(src_pid=i, dst_pid=None, checkpoint_ref=record)
        data.on_stored = lambda: done.append(sim.now)
        host.transfer_checkpoint_data(data)
    sim.run_until_idle()
    one = 512 * 1024 * 8 / 2_000_000
    assert done[0] == pytest.approx(one)
    assert done[1] == pytest.approx(2 * one)  # serialized on cell airtime


def test_checkpoint_transfers_concurrent_without_shared_medium():
    params = NetworkParams(shared_cell_medium=False)
    sim, net, mss, mh, _ = build(params)
    mh2 = net.add_mh(mss)
    mh2.attach_process(1, lambda m: None)
    done = []
    for i, host in enumerate((mh, mh2)):
        record = CheckpointRecord(
            pid=i, csn=1, kind=CheckpointKind.TENTATIVE, time_taken=0.0, ckpt_id=0
        )
        data = CheckpointDataMessage(src_pid=i, dst_pid=None, checkpoint_ref=record)
        data.on_stored = lambda: done.append(sim.now)
        host.transfer_checkpoint_data(data)
    sim.run_until_idle()
    one = 512 * 1024 * 8 / 2_000_000
    assert done == pytest.approx([one, one])


def test_demoted_checkpoint_data_dropped():
    """A record demoted while in flight (abort) is not stored."""
    sim, net, mss, mh, _ = build()
    record = CheckpointRecord(
        pid=0, csn=1, kind=CheckpointKind.TENTATIVE, time_taken=0.0, ckpt_id=0
    )
    data = CheckpointDataMessage(src_pid=0, dst_pid=None, checkpoint_ref=record)
    stored = []
    data.on_stored = lambda: stored.append(True)
    mh.transfer_checkpoint_data(data)
    record.kind = CheckpointKind.MUTABLE  # demoted mid-flight
    sim.run_until_idle()
    assert mss.stable_storage.checkpoints_of(0) == []
    assert stored == []


def test_background_bytes_counted():
    sim, net, mss, mh, _ = build()
    record = CheckpointRecord(
        pid=0, csn=1, kind=CheckpointKind.TENTATIVE, time_taken=0.0, ckpt_id=0
    )
    data = CheckpointDataMessage(src_pid=0, dst_pid=None, checkpoint_ref=record)
    mh.transfer_checkpoint_data(data)
    assert mh.background_bytes == 512 * 1024
