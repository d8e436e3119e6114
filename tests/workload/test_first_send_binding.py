"""A slot binds its destination stream at its first send.

A slot's delay stream is drawn when the slot is armed, at start; its
destination stream only when it sends. Until then the slot holds a
:class:`_FirstDraw` in place of the stream's ``getrandbits``, so a host
that has not sent yet holds no 2.5 kB Mersenne state for it. Stream
names, seeds and per-stream draw order are unchanged, so a run is the
run in which every destination stream is bound up front, and an image
cut while some slots are still unbound resumes to the uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.errors import SimulationError
from repro.snapshot.state import capture, restore
from repro.workload.base import _FirstDraw

N = 256
#: ~1.5 s of simulated time at one send per second per host: most hosts
#: have sent, some have not
CUT = 1_500

WORKLOADS = {
    "p2p": {"mean_send_interval": 1.0},
    "group": {"mean_send_interval": 1.0, "intra_inter_ratio": 4.0},
    "bursty": {"burst_send_interval": 0.5, "mean_on": 5.0, "mean_off": 5.0},
}


def _build(kind: str = "p2p", n: int = N):
    return build_point_runtime(RunPoint(
        protocol="mutable", workload=kind, workload_params=WORKLOADS[kind],
        system_params={"n_processes": n, "n_mss": 8, "trace_messages": False},
        run_params={"max_initiations": 10**6}, seed=11,
    ))


def _run(runner, events: int, resume: bool = False) -> None:
    with pytest.raises(SimulationError, match="max_events"):
        (runner.resume if resume else runner.run)(max_events=events)


def _digest(system):
    """Everything simulated: events, clock, metrics, trace."""
    sim = system.sim
    sim.flush_metrics()
    metrics = json.dumps(system.metrics.snapshot(), sort_keys=True)
    return sim.events_processed, repr(sim.now), metrics, sim.trace.content_hash()


def _held(system, prefix: str):
    """pid -> the live stream named ``prefix`` + pid."""
    return {
        int(name[len(prefix):]): rng
        for name, rng in system.streams._streams.items()
        if name.startswith(prefix) and rng is not None
    }


def test_a_p2p_point_holds_a_destination_stream_for_exactly_its_senders():
    system, _, runner = _build()
    _run(runner, CUT)
    senders = {
        pid for pid, process in system.processes.items()
        if process.app_state["messages_sent"]
    }
    held = _held(system, "workload.p2p.dst.")
    assert 0 < len(senders) < N
    assert set(held) == senders

    control, workload, control_runner = _build()
    for pid in control.processes:  # every destination stream bound up front
        slot = workload._slots[pid]
        slot.getrandbits = control.streams.stream(f"workload.p2p.dst.{pid}").getrandbits
    _run(control_runner, CUT)
    assert _digest(system) == _digest(control)
    bound = _held(control, "workload.p2p.dst.")
    assert len(bound) == N
    assert {pid: rng.getstate() for pid, rng in held.items()} == {
        pid: bound[pid].getstate() for pid in held
    }


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_a_slot_holds_its_first_draw_until_it_sends(kind):
    system, workload, runner = _build(kind, n=64)
    _run(runner, CUT)
    unbound = {
        slot for slot, bound in workload._slots.items()
        if isinstance(bound.getrandbits, _FirstDraw)
    }
    assert 0 < len(unbound) < len(workload._slots)
    for slot in unbound:
        first = workload._slots[slot].getrandbits
        assert first.name not in system.streams._streams
    for slot in set(workload._slots) - unbound:
        getrandbits = workload._slots[slot].getrandbits
        assert type(getrandbits).__name__ == "builtin_function_or_method"
        assert getrandbits.__self__ in system.streams._streams.values()


def test_an_image_cut_before_some_first_sends_resumes_to_the_uninterrupted_run():
    total = 2 * CUT
    control, _, control_runner = _build()
    _run(control_runner, total)

    system, workload, runner = _build()
    _run(runner, CUT)
    assert any(isinstance(s.getrandbits, _FirstDraw) for s in workload._slots.values())
    image = restore(capture(runner))
    _run(image.runner, total - CUT, resume=True)
    assert _digest(image.system) == _digest(control)
