"""Tests for energy accounting and doze management."""

from __future__ import annotations

import pytest

from repro.analysis.energy import DozeManager, EnergyModel, EnergyParams
from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, SystemConfig
from repro.core.system import MobileSystem
from repro.net.mobility import handoff
from repro.snapshot.state import SimulationImage, restore
from repro.workload.point_to_point import PointToPointWorkload
from tests.snapshot import _old_images as old


def build(n=4, seed=3, n_mss=1):
    return MobileSystem(
        SystemConfig(n_processes=n, seed=seed, n_mss=n_mss), MutableCheckpointProtocol()
    )


def test_tx_rx_bytes_counted():
    system = build()
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    model = EnergyModel(system)
    sender = model.host_report(0)
    receiver = model.host_report(1)
    assert sender.tx_bytes == 1024
    assert receiver.rx_bytes == 1024
    assert sender.tx_mj > receiver.rx_mj  # tx costs ~2x rx per byte


def test_checkpoint_transfer_charged_as_tx():
    system = build()
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    assert system.protocol.processes[1].initiate()
    system.sim.run_until_idle()
    report = EnergyModel(system).host_report(1)
    assert report.background_bytes >= 512 * 1024
    assert report.tx_mj > 512 * 1.9  # dominated by the checkpoint data


def test_doze_manager_puts_idle_hosts_to_sleep():
    system = build()
    manager = DozeManager(system, idle_timeout=10.0, poll_interval=1.0)
    manager.start()
    system.sim.run(until=20.0)
    manager.stop()
    assert all(mh.dozing for mh in system.mhs)


def test_message_wakes_dozing_host():
    system = build()
    manager = DozeManager(system, idle_timeout=5.0, poll_interval=1.0)
    manager.start()
    system.sim.run(until=10.0)
    assert system.mhs[1].dozing
    system.processes[0].send_computation(1)
    system.sim.run(until=11.0)
    manager.stop()
    assert not system.mhs[1].dozing
    assert system.mhs[1].wakeups == 1
    assert system.mhs[1].doze_time > 0


def test_totals_aggregate():
    system = build()
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(2.0))
    workload.start()
    system.sim.run(until=50.0)
    workload.stop()
    system.run_until_quiescent()
    totals = EnergyModel(system).totals()
    assert totals["total_mj"] > 0
    assert totals["tx_mj"] > 0 and totals["rx_mj"] > 0
    assert totals["tx_mj"] == pytest.approx(totals["rx_mj"] * 1.9, rel=0.05)


def test_broadcast_commit_wakes_more_dozing_hosts_than_update():
    """§5.3.2: broadcast wastes dozing hosts' energy; update mode spares
    processes uninvolved in the checkpointing."""

    def run(mode):
        system = MobileSystem(
            SystemConfig(n_processes=8, seed=3),
            MutableCheckpointProtocol(commit_mode=mode),
        )
        # only processes 0 and 1 communicate; 2..7 stay idle and doze
        system.processes[1].send_computation(0)
        system.sim.run_until_idle()
        manager = DozeManager(system, idle_timeout=5.0, poll_interval=1.0)
        manager.start()
        system.sim.run(until=20.0)
        assert system.protocol.processes[0].initiate()
        system.sim.run(until=60.0)
        manager.stop()
        system.run_until_quiescent()
        return sum(mh.wakeups for mh in system.mhs)

    broadcast_wakeups = run("broadcast")
    update_wakeups = run("update")
    assert update_wakeups < broadcast_wakeups


def test_energy_params_configurable():
    system = build()
    system.processes[0].send_computation(1)
    system.sim.run_until_idle()
    expensive = EnergyModel(system, EnergyParams(tx_uj_per_byte=100.0))
    cheap = EnergyModel(system, EnergyParams(tx_uj_per_byte=0.1))
    assert expensive.host_report(0).tx_mj > cheap.host_report(0).tx_mj


def _exchange(system, rounds=5):
    for _ in range(rounds):
        system.processes[0].send_computation(1)
        system.processes[1].send_computation(0)
    system.sim.run_until_idle()


def test_handoffs_keep_a_hosts_radio_bytes():
    """Every attach builds fresh wireless channels; the bytes sent on the
    ones a host left stay in its report (2 cells, 4 processes, seed 5)."""
    system = build(n=4, seed=5, n_mss=2)
    mh = system.processes[0].host
    model = EnergyModel(system)
    links, readings = [], []
    for target in (1, 0, None):
        _exchange(system)
        report = model.host_report(0)
        readings.append((report.tx_bytes, report.rx_bytes))
        links.append((mh.uplink, mh.downlink))
        if target is not None:
            handoff(system.network, mh, system.mss_list[target])
            report = model.host_report(0)
            readings.append((report.tx_bytes, report.rx_bytes))
            system.sim.run_until_idle()
    assert len({id(up) for up, _ in links}) == 3
    for earlier, later in zip(readings, readings[1:]):
        assert earlier[0] <= later[0] and earlier[1] <= later[1]
    assert readings[0] == (5 * 1024, 5 * 1024)
    assert readings[-1] == (
        sum(up.bytes_sent for up, _ in links),
        sum(down.bytes_sent for _, down in links),
    )
    assert readings[-1] == (15 * 1024, 15 * 1024)


def test_an_image_without_link_totals_reads_them_as_zero():
    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", system_params={"n_processes": 4, "n_mss": 2}, seed=5,
    ))
    _exchange(system)
    handoff(system.network, system.processes[0].host, system.mss_list[1])
    system.sim.run_until_idle()
    assert EnergyModel(system).host_report(0).tx_bytes == 5 * 1024

    image = restore(old.dumps_without_link_totals(SimulationImage(runner)))
    mh = image.system.processes[0].host
    assert "left_tx_bytes" not in vars(mh) and mh.left_tx_bytes == 0
    assert EnergyModel(image.system).host_report(0).tx_bytes == 0
    _exchange(image.system, rounds=1)
    assert EnergyModel(image.system).host_report(0).tx_bytes == 1024
