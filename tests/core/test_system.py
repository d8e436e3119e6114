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


def test_stable_storage_for_answers_for_known_hosts_only():
    """A host between cells lands at the first MSS's storage, a
    disconnected one at its holder's; a pid no host runs is refused, not
    handed the first MSS's storage."""
    from repro.checkpointing.disconnect_support import disconnect_process
    from repro.errors import UnknownHostError
    from repro.net.mobility import handoff

    system = MobileSystem(
        SystemConfig(n_processes=4, n_mss=2), MutableCheckpointProtocol()
    )
    first, second = system.mss_list
    assert system.stable_storage_for(1) is second.stable_storage
    handoff(system.network, system.processes[1].host, first)
    assert system.stable_storage_for(1) is first.stable_storage  # between cells
    disconnect_process(system, 3)
    assert system.stable_storage_for(3) is second.stable_storage
    with pytest.raises(UnknownHostError):
        system.stable_storage_for(99)


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


def test_hooks_registered_mid_run_see_every_later_message():
    """A process calls the hooks only while some are registered; one
    registered after ``start()`` (as ``SenderMessageLog`` is) still sees
    every send and every delivery from then on."""
    from repro.campaign import RunPoint, build_point_runtime
    from repro.checkpointing.message_log import SenderMessageLog
    from repro.errors import SimulationError

    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", workload_params={"mean_send_interval": 0.5},
        system_params={"n_processes": 8, "trace_messages": False},
        run_params={"max_initiations": 10**6}, seed=3,
    ))

    def totals():
        processes = system.processes.values()
        return (sum(p.app_state["messages_sent"] for p in processes),
                sum(p.app_state["messages_received"] for p in processes))

    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=2000)
    sent_before, received_before = totals()
    log = SenderMessageLog(system)
    delivered = []
    system.add_deliver_hook(lambda proc, msg: delivered.append((msg.src_pid, proc.pid)))
    with pytest.raises(SimulationError, match="max_events"):
        runner.resume(max_events=4000)
    sent_after, received_after = totals()
    assert sent_after - sent_before == len(log) > 100
    assert received_after - received_before == len(delivered) > 100


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
