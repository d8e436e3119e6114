"""Deliver thunks queued in an image written before they were partials.

While a mutable checkpoint copy is in progress, a mutable process queues
the deliver thunk of every later arrival and delivers them in order when
the copy completes. The thunk is ``functools.partial(process._deliver,
message)``; images written before that hold a
``repro.core.process._DeliverCall(process, message)``. The loader maps
the old class to the partial, and a resumed run delivers the queued
messages in arrival order, as the uninterrupted run does.
"""

from __future__ import annotations

import pickle
from collections import deque
from functools import partial

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.protocol import noop
from repro.core.process import AppProcess
from repro.errors import SimulationError
from repro.snapshot.state import SimulationImage, capture, restore
from tests.snapshot import _old_images as old

#: ``_DeliverCall(3, "m")`` pickled at the commit before the thunk was a
#: partial: the stand-in writer must emit it byte for byte
PINNED = (
    "8005954c000000000000008c12726570726f2e636f72652e70726f63657373948c"
    "0c5f44656c6976657243616c6c9493942981944e7d94288c0770726f6365737394"
    "4b038c076d657373616765948c016d94758694622e"
)

RECEIVER = 3


def test_deliver_call_image_is_pinned():
    image = old.dumps(old._DeliverCall(3, "m"), protocol=5)
    assert image.hex() == PINNED


def _queued_run():
    """An 8p mutable run stopped between events with three arrivals
    queued at ``RECEIVER`` behind a checkpoint copy in progress."""
    point = RunPoint(
        protocol="mutable", workload_params={"mean_send_interval": 0.5},
        system_params={"n_processes": 8, "trace_messages": True},
        run_params={"max_initiations": 2}, seed=7,
    )
    system, _, runner = build_point_runtime(point)
    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=500)
    receiver = system.protocol.processes[RECEIVER]
    receiver._hand_off(noop, busy_time=10.0)  # the copy: later arrivals wait
    while len(receiver._delivery_queue) < 4:
        assert system.sim.step()
    return system, runner


def _deliveries(trace):
    return [(r["src"], r["msg_id"]) for r in trace.where("comp_recv", dst=RECEIVER)]


def test_queued_old_thunks_resume_as_partials_in_arrival_order():
    system, runner = _queued_run()
    receiver = system.protocol.processes[RECEIVER]
    live = list(receiver._delivery_queue)
    assert live[0] is noop and all(type(entry) is partial for entry in live[1:])
    queued = [entry.args[0].msg_id for entry in live[1:]]

    # the same run as an image written while the thunk was a class
    receiver._delivery_queue = deque(
        [noop] + [old._DeliverCall(entry.func.__self__, *entry.args) for entry in live[1:]]
    )
    payload = old.dumps(SimulationImage(runner))
    receiver._delivery_queue = deque(live)
    image = restore(payload)

    resumed = list(image.system.protocol.processes[RECEIVER]._delivery_queue)
    app = image.system.processes[RECEIVER]
    for entry in resumed[1:]:
        assert isinstance(entry, partial) and not entry.keywords
        assert entry.func.__self__ is app and entry.func.__func__ is AppProcess._deliver
    assert [entry.args[0].msg_id for entry in resumed[1:]] == queued
    # written again, the converted thunk is a plain partial
    again = pickle.loads(capture(image.runner))
    assert all(
        type(entry) is partial
        for entry in list(again.system.protocol.processes[RECEIVER]._delivery_queue)[1:]
    )

    runner.resume()
    image.runner.resume()
    expected = _deliveries(system.sim.trace)
    got = _deliveries(image.system.sim.trace)
    assert got == expected
    assert image.system.sim.trace.content_hash() == system.sim.trace.content_hash()
    # the queued messages reached the application in arrival order, and
    # every channel into the receiver stayed FIFO
    delivered = [msg_id for _, msg_id in got]
    positions = [delivered.index(msg_id) for msg_id in queued]
    assert positions == sorted(positions)
    for src in {src for src, _ in got}:
        ids = [msg_id for s, msg_id in got if s == src]
        assert ids == sorted(ids)
