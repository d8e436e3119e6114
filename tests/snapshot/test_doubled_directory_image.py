"""An image written while the net layer kept each location fact twice.

The net layer keeps where a mobile host is on the host (``mss``,
``uplink``, ``downlink``) and who holds its traffic while it is away in
one ``MobileNetwork.custody`` map whose records name their MSS. Images
written before kept the cell in ``_mss_of_mh`` too, the downlink in the
MSS's ``_downlinks`` beside ``attached_mhs``, and each record in its
holder's ``disconnect_records`` behind a ``_holder_of_mh`` index.
:func:`repro.snapshot.state.restore` moves each fact to its one place,
so a run stopped with one host between cells and another disconnected
resumes from such an image and retraces the uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.disconnect_support import disconnect_process, reconnect_process
from repro.errors import EventBudgetExceeded
from repro.net.mobility import handoff
from repro.snapshot.state import SimulationImage, restore
from tests.snapshot import _old_images as old

MOVER, ABSENT = 0, 1  # homed at mss0 and mss1: pid % n_mss
#: an event inside both gaps: the handoff (10-15 s) and the disconnection (9-40 s)
STOP = 360


def _build():
    point = RunPoint(
        protocol="mutable", workload_params={"mean_send_interval": 0.5},
        system_params={"n_processes": 4, "n_mss": 2, "checkpoint_interval": 30.0,
                       "trace_messages": True},
        run_params={"max_initiations": 3}, seed=5,
    )
    system, _, runner = build_point_runtime(point)
    sim, first, second = system.sim, *system.mss_list
    sim.schedule_at(9.0, disconnect_process, system, ABSENT)
    sim.schedule_at(10.0, handoff, system.network, system.mhs[MOVER], second, 5.0)
    sim.schedule_at(40.0, reconnect_process, system, ABSENT, first)
    return system, runner


def test_an_image_taken_mid_handoff_and_mid_disconnect_resumes_and_retraces():
    control_system, control_runner = _build()
    control = control_runner.run()

    system, runner = _build()
    with pytest.raises(EventBudgetExceeded):
        runner.run(max_events=STOP)
    custody = system.network.custody
    assert set(custody) == {f"mh{MOVER}", f"mh{ABSENT}"}
    assert all(record.buffered for record in custody.values())
    payload = old.dumps_doubled_directory(SimulationImage(runner))
    assert b"_mss_of_mh" in payload and b"custody" not in payload

    image = restore(payload)
    network = image.system.network
    first, second = network.mss_list
    assert not {"_mss_of_mh", "_holder_of_mh"} & set(vars(network))
    for mss in network.mss_list:
        assert not {"attached_mhs", "_downlinks", "disconnect_records"} & set(vars(mss))
    for mh in network.mh_list:
        assert (mh.downlink is None) == (mh.mss is None)
        if mh.downlink is not None:
            assert mh.downlink.deliver == mh.on_downlink_arrival
            assert "_paused" not in vars(mh.downlink)
    assert network.custody[f"mh{MOVER}"].holder is first
    assert network.custody[f"mh{ABSENT}"].holder is second
    assert [m.msg_id for m in network.custody[f"mh{MOVER}"].buffered] == [
        m.msg_id for m in custody[f"mh{MOVER}"].buffered
    ]

    resumed = image.runner.resume()
    assert not network.custody
    trace = image.system.sim.trace
    assert trace.count("handoff_complete") == trace.count("reconnect") == 1
    assert trace.content_hash() == control_system.sim.trace.content_hash()
    assert resumed.to_dict() == control.to_dict()
