"""Tests for the system builder."""

from __future__ import annotations

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import CheckpointKind
from repro.core.config import SystemConfig
from repro.core.system import MobileSystem


def test_builds_paper_topology():
    system = MobileSystem(SystemConfig(), MutableCheckpointProtocol())
    assert len(system.mhs) == 16
    assert len(system.mss_list) == 1
    assert len(system.processes) == 16
    assert len(system.protocol.processes) == 16


def test_round_robin_cell_assignment():
    system = MobileSystem(
        SystemConfig(n_processes=4, n_mss=2), MutableCheckpointProtocol()
    )
    assert system.mss_for(0) is system.mss_list[0]
    assert system.mss_for(1) is system.mss_list[1]
    assert system.mss_for(2) is system.mss_list[0]


def test_initial_permanent_checkpoints_exist():
    system = MobileSystem(SystemConfig(n_processes=4), MutableCheckpointProtocol())
    for pid in system.processes:
        latest = system.stable_storage_for(pid).latest(pid, CheckpointKind.PERMANENT)
        assert latest is not None
        assert latest.csn == 0
    assert system.sim.trace.count("permanent") == 4


def test_deliver_hook_invoked():
    system = MobileSystem(SystemConfig(n_processes=2), MutableCheckpointProtocol())
    seen = []
    system.add_deliver_hook(lambda proc, msg: seen.append((proc.pid, msg.msg_id)))
    system.processes[0].send_computation(1, payload="hi")
    system.sim.run_until_idle()
    assert len(seen) == 1
    assert seen[0][0] == 1


def test_all_stable_storages():
    system = MobileSystem(
        SystemConfig(n_processes=4, n_mss=2), MutableCheckpointProtocol()
    )
    assert len(system.all_stable_storages()) == 2


def test_run_until_quiescent():
    system = MobileSystem(SystemConfig(n_processes=2), MutableCheckpointProtocol())
    system.processes[0].send_computation(1)
    system.run_until_quiescent()
    assert system.processes[1].app_state["messages_received"] == 1


def test_trace_debug_capacity_builds_flight_recorder():
    from repro.checkpointing.mutable import MutableCheckpointProtocol
    from repro.core.config import SystemConfig
    from repro.core.system import MobileSystem
    from repro.sim.trace import TraceLevel

    config = SystemConfig(n_processes=4, trace_messages=False,
                          trace_debug_capacity=16)
    system = MobileSystem(config, MutableCheckpointProtocol())
    trace = system.sim.trace
    # Bounded DEBUG implies DEBUG-level tracing even without
    # trace_messages: the ring is the memory bound, not the level.
    assert trace.level == TraceLevel.DEBUG
    assert trace.debug_capacity == 16
