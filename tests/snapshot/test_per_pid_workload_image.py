"""Images written while workloads kept per-pid tables.

Every workload sends through numbered slots (``Workload._arm`` /
``_fire``), and an image carries none of the tables derived from them.
Images written before hold a ``_Bindings`` of per-pid stream tuples with
``_Others`` peer views, a shared ``_pids`` list and its ``_views``, and a
group workload's queued sends are ``_fire_intra(pid)`` and
``_fire_inter(leader)`` events. Such an image loads, drops the tables,
and resumes to the uninterrupted run's trace.
"""

from __future__ import annotations

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.errors import SimulationError
from repro.snapshot.state import SimulationImage, capture, restore
from repro.workload.base import _DERIVED
from tests.snapshot import _old_images as old

#: ``_Others([0, 1], 1)`` pickled at the commit before workloads had
#: slots: the stand-in writer must emit it byte for byte
PINNED = (
    "80059548000000000000008c13726570726f2e776f726b6c6f61642e62617365948c"
    "075f4f74686572739493942981944e7d94288c055f70696473945d94284b004b0165"
    "8c055f736b6970944b01758694622e"
)

STOP = 3000
WORKLOADS = {
    "p2p": {"mean_send_interval": 1.0},
    # leaders send between groups every 4 s on average, so the image
    # holds _fire_inter events that fire after the resume
    "group": {"mean_send_interval": 1.0, "intra_inter_ratio": 4.0},
    "bursty": {"burst_send_interval": 0.5, "mean_on": 5.0, "mean_off": 5.0},
}


def test_others_image_is_pinned():
    assert old.dumps(old._Others([0, 1], 1), protocol=5).hex() == PINNED


def _build(kind):
    return build_point_runtime(RunPoint(
        protocol="mutable", workload=kind, workload_params=WORKLOADS[kind],
        system_params={"n_processes": 16, "n_mss": 2, "trace_messages": True},
        run_params={"max_initiations": 3}, seed=5,
    ))


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_a_per_pid_image_resumes_to_the_uninterrupted_trace(kind):
    control_system, _, control_runner = _build(kind)
    control = control_runner.run()

    system, _, runner = _build(kind)
    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=STOP)
    payload = old.dumps_per_pid_workload(SimulationImage(runner))
    assert b"_Others" in payload and b"_bound" in payload
    if kind == "group":
        assert b"_fire_intra" in payload and b"_fire_inter" in payload

    image = restore(payload)
    workload = image.runner.workload
    assert not {"_bound", "_views", "_lambd"} & set(vars(workload))
    assert not workload._slots and not workload._pids
    resumed = image.runner.resume()
    assert image.system.sim.trace.content_hash() == control_system.sim.trace.content_hash()
    assert resumed.to_dict() == control.to_dict()


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_an_image_carries_no_derived_table(kind):
    system, _, runner = _build(kind)
    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=STOP)
    assert runner.workload._slots  # filled by the run's sends
    assert not set(_DERIVED) & set(runner.workload.__getstate__())
    payload = capture(runner)
    assert b"_Bindings" not in payload and b"_Slot" not in payload
