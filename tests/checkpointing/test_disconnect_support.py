"""Tests for §2.2 disconnection support wired to the mutable protocol."""

from __future__ import annotations

import pytest

from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.checkpointing.disconnect_support import (
    disconnect_process,
    reconnect_process,
)
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, SystemConfig
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload


def build(seed=42, n=5, n_mss=2):
    config = SystemConfig(n_processes=n, seed=seed, n_mss=n_mss)
    system = MobileSystem(config, MutableCheckpointProtocol())
    return system


def exchange(system, src, dst):
    system.processes[src].send_computation(dst)
    system.sim.run_until_idle()


def test_disconnect_stores_checkpoint_at_mss():
    system = build()
    record = disconnect_process(system, 0)
    mss = system.mss_list[0]
    assert system.network.custody["mh0"] is record and record.holder is mss
    from repro.checkpointing.types import CheckpointKind

    stored = mss.stable_storage.checkpoints_of(0)
    assert any(r.kind is CheckpointKind.DISCONNECT for r in stored)


def test_request_during_disconnect_converted_by_mss():
    """The MSS converts the disconnect checkpoint into the process's new
    checkpoint and the checkpointing completes without the MH."""
    system = build()
    exchange(system, 0, 1)          # P1 depends on P0
    record = disconnect_process(system, 0)
    assert system.protocol.processes[1].initiate()
    system.sim.run_until_idle()
    assert record.checkpoint_taken_on_behalf
    assert system.sim.trace.count("commit") == 1
    assert system.sim.trace.count("tentative", pid=0) == 1
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def test_disconnected_process_does_not_block_checkpointing():
    """§2.2's whole point: the coordination terminates while the MH is
    away instead of waiting for reconnection."""
    system = build()
    exchange(system, 0, 1)
    disconnect_process(system, 0)
    t0 = system.sim.now
    assert system.protocol.processes[1].initiate()
    system.sim.run_until_idle()
    commit = system.sim.trace.last("commit")
    assert commit is not None
    assert commit.time - t0 < 60.0


def test_computation_buffered_and_replayed_at_new_cell():
    system = build()
    disconnect_process(system, 0)
    system.processes[1].send_computation(0)
    system.processes[2].send_computation(0)
    system.sim.run_until_idle()
    assert system.processes[0].app_state["messages_received"] == 0
    reconnect_process(system, 0, system.mss_list[1])
    system.sim.run_until_idle()
    assert system.processes[0].app_state["messages_received"] == 2
    assert system.processes[0].host.mss is system.mss_list[1]


def test_commit_during_disconnect_applied_by_proxy():
    system = build()
    exchange(system, 0, 1)
    disconnect_process(system, 0)
    system.protocol.processes[1].initiate()
    system.sim.run_until_idle()
    # commit was handled by the proxy: cp_state clean after reconnect
    reconnect_process(system, 0, system.mss_list[0])
    system.sim.run_until_idle()
    assert not system.protocol.processes[0].cp_state


def test_reconnected_process_participates_normally():
    system = build()
    exchange(system, 0, 1)
    disconnect_process(system, 0)
    reconnect_process(system, 0, system.mss_list[1])
    system.sim.run_until_idle()
    exchange(system, 0, 2)          # P2 now depends on P0
    assert system.protocol.processes[2].initiate()
    system.sim.run_until_idle()
    assert system.sim.trace.count("tentative", pid=0) == 1
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def test_full_cycle_under_traffic_stays_consistent():
    system = build(seed=9)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(3.0))
    workload.start()
    system.sim.run(until=50.0)
    disconnect_process(system, 2)
    system.sim.run(until=100.0)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=200.0)
    reconnect_process(system, 2, system.mss_list[1])
    system.sim.run(until=300.0)
    workload.stop()
    system.sim.run_until_idle()
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
