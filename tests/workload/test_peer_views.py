"""The "everyone but me" destination views and the O(n) start they buy.

A workload keeps one shared pid list and, per pid, a two-slot view of it
with that pid skipped, instead of n lists of n - 1 pids. Two things are
pinned here: a ``choice`` over the view is the very draw a ``choice``
over the materialised list makes (so no simulated result moves), and
what ``start()`` and a send allocate under ``repro/workload/`` is a
constant per process — measured with ``tracemalloc``, no timing.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import (
    GroupWorkloadConfig,
    PointToPointWorkloadConfig,
    SystemConfig,
)
from repro.core.system import MobileSystem
from repro.sim.rng import raw_rng
from repro.workload.base import _Others, _others_by_pid
from repro.workload.bursty import BurstyWorkload, BurstyWorkloadConfig
from repro.workload.group import GroupWorkload
from repro.workload.point_to_point import PointToPointWorkload


def _system(n: int) -> MobileSystem:
    config = SystemConfig(n_processes=n, seed=5, trace_messages=False)
    return MobileSystem(config, MutableCheckpointProtocol())


# -- (a) draw parity -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_choice_over_the_view_is_choice_over_the_list(n):
    pids = list(range(100, 100 + n))  # pids need not be their own index
    views = _others_by_pid(pids)
    for pid in pids:
        materialised = [p for p in pids if p != pid]
        view = views[pid]
        assert len(view) == n - 1
        assert list(view) == materialised
        over_view, over_list = raw_rng(pid), raw_rng(pid)
        assert [over_view.choice(view) for _ in range(200)] == [
            over_list.choice(materialised) for _ in range(200)
        ]


def test_view_refuses_what_the_list_would_misread():
    view = _Others([7, 8, 9], 1)
    assert [view[0], view[1]] == [7, 9]
    with pytest.raises(IndexError):
        view[2]
    with pytest.raises(IndexError):
        view[-1]
    assert not _Others([7], 0)  # alone: nobody to send to


def test_views_follow_a_population_change():
    system = _system(4)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(1.0))
    assert list(workload._everyone_but(2)) == [0, 1, 3]
    shared = workload._pids
    assert all(view._pids is shared for view in workload._views.values())

    system.processes[4] = system.processes[0]  # a fifth table entry
    assert list(workload._everyone_but(2)) == [0, 1, 3, 4]
    assert list(workload._everyone_but(4)) == [0, 1, 2, 3]
    del system.processes[1]
    assert list(workload._everyone_but(2)) == [0, 3, 4]


# -- (b) start-up and per-send memory: O(1) per process --------------------------

N_BIG = 2048
#: bytes a workload may keep per process from its own frames: stream
#: names, bound draws, one view, table slots (~0.45 kB; a materialised
#: peer list alone is 16 kB per process at this size)
PER_PROCESS_BUDGET = 1024

_WORKLOAD_FRAMES = [tracemalloc.Filter(True, "*/repro/workload/*")]


def _workload_bytes(snapshot: tracemalloc.Snapshot) -> int:
    stats = snapshot.filter_traces(_WORKLOAD_FRAMES).statistics("filename")
    return sum(stat.size for stat in stats)


def _build(kind: str, system: MobileSystem):
    if kind == "p2p":
        return PointToPointWorkload(system, PointToPointWorkloadConfig(1.0))
    if kind == "group":
        return GroupWorkload(system, GroupWorkloadConfig(mean_send_interval=1.0))
    return BurstyWorkload(system, BurstyWorkloadConfig())


@pytest.mark.parametrize("kind", ["p2p", "group", "bursty"])
def test_start_allocates_a_constant_per_process(kind):
    system = _system(N_BIG)
    workload = _build(kind, system)
    tracemalloc.start()
    try:
        workload.start()
        held = _workload_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert held <= PER_PROCESS_BUDGET * N_BIG, (
        f"{kind}: start() holds {held / N_BIG:.0f} bytes per process "
        f"from repro/workload frames at {N_BIG}p"
    )


def test_a_bursty_send_allocates_no_peer_list():
    system = _system(N_BIG)
    workload = BurstyWorkload(system, BurstyWorkloadConfig())
    workload.start()
    workload._on[7] = True
    during_send = []

    def send(pid, dst):
        # what _fire holds while the message goes out, seen from inside it
        if tracemalloc.is_tracing():
            during_send.append(tracemalloc.take_snapshot())

    workload._send = send
    workload._fire(7)  # the first send builds the shared table, once
    tracemalloc.start()
    try:
        workload._fire(7)
    finally:
        tracemalloc.stop()
    assert len(during_send) == 1
    assert _workload_bytes(during_send[0]) <= 1024
