"""Python calls per simulated event on the computation-message path.

A §5.1 point spends nearly all its time carrying computation messages:
a workload send, the uplink, the backbone and the downlink, each a
kernel event. Every Python frame on that path costs time whatever it
simulates, so the count of frames per event is pinned here. It is a
count, not a timing: ``sys.settrace`` sees one ``call`` per Python frame,
and the same seed gives the same count on every host.

Measured over events 5 000-25 000 of a mutable p2p point
(``mean_send_interval`` 1.0, 8 MSSs, trace off, seed 11): 10.35 calls
per event at 16p and 10.37 at 1024p while a send looked its streams and
peers up through two methods and drew its destination through
``random.choice`` over a view, a process called empty hook lists, a
``Counter.inc`` and a ``_do_send``, and each delivery built a thunk
object; 6.29 and 8.78 since (the 1024p window holds part of a
checkpoint wave, whose control messages cost more frames). 8.40 at 1024p
once a system message's fields were a plain slot, and 7.85 once the wave
path stopped calling ``Counter.inc``, calling ``MetricsRegistry.counter``
for a counter the run had already listed and reading ``Simulator.now``
through its property (1024p bound 9.3 -> 8.75, the same 0.9 margin).
5.02 and 7.15 once a workload drew from its streams' C ``random`` and
``getrandbits`` in place of ``expovariate`` and ``_randbelow`` and
scheduled its next send with ``schedule_at``, and a process built its
``ComputationMessage`` in place and sent it through its own host, not
``MobileNetwork.send_from_process`` (bounds 7.5 -> 5.92 and 8.75 ->
8.05, each the count plus 0.9). 7.20 at 1024p once a slot bound its
destination stream at its first send: the window holds the first
sends of the hosts that had not sent by event 5 000, and each binds
through four frames once (16p unchanged; bounds unchanged).

A 16p group point (ratio 1000, the same window and seed) is pinned
beside them: 5.30 calls per event while a group send ended in a call to
``_schedule_intra`` / ``_schedule_inter``, 5.05 once every workload sent
through the one ``Workload._fire`` / ``_arm`` pair (bound 5.95, the
count plus 0.9).

Hypothesis registers a ``gc.callbacks`` hook once a property test has
run, and the collector's passes vary with what ran before, so the hooks
are taken out while counting: a count must repeat exactly in any order.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.errors import SimulationError

WARMUP_EVENTS = 5_000
COUNTED_EVENTS = 20_000
#: (workload, population) -> the most Python calls per event it may take
MAX_CALLS_PER_EVENT = {("p2p", 16): 5.92, ("p2p", 1024): 8.05, ("group", 16): 5.95}


def _calls_in_window(workload: str, n: int) -> int:
    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", workload=workload,
        workload_params={"mean_send_interval": 1.0},
        system_params={"n_processes": n, "n_mss": 8, "trace_messages": False},
        run_params={"max_initiations": 10**6}, seed=11,
    ))
    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=WARMUP_EVENTS)
    calls = 0

    def count(frame, event, arg):  # the global hook sees "call" events only
        nonlocal calls
        calls += 1

    previous, callbacks = sys.gettrace(), gc.callbacks[:]
    gc.callbacks.clear()
    sys.settrace(count)
    try:
        system.sim.run(max_events=COUNTED_EVENTS)
    except SimulationError as exc:
        assert "max_events" in str(exc)
    finally:
        sys.settrace(previous)
        gc.callbacks[:] = callbacks
    assert system.sim.events_processed == WARMUP_EVENTS + COUNTED_EVENTS
    return calls


def _case_id(case) -> str:
    workload, n = case
    return str(n) if workload == "p2p" else f"{workload}-{n}"


@pytest.mark.parametrize("case", sorted(MAX_CALLS_PER_EVENT), ids=_case_id)
def test_calls_per_event_on_the_message_path(case):
    workload, n = case
    calls = _calls_in_window(workload, n)
    assert _calls_in_window(workload, n) == calls, "a frame count must repeat exactly"
    per_event = calls / COUNTED_EVENTS
    bound = MAX_CALLS_PER_EVENT[workload, n]
    assert per_event <= bound, (
        f"{workload} {n}p: {calls} Python calls over {COUNTED_EVENTS} events: "
        f"{per_event:.2f} per event (bound {bound})"
    )
