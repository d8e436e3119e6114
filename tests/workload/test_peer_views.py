"""The "everyone but me" destination draw and the O(n) start it buys.

A workload's send slots share one peer list and each skips its sender's
index in it, instead of n lists of n - 1 pids. Two things are pinned
here: the pick every workload's send makes from a slot (the
``getrandbits`` rejection loop of one ``_randbelow`` draw, and an index
skip) is the very draw a ``choice`` over the materialised list makes (so
no simulated result moves), and
what ``start()`` and a send allocate under ``repro/workload/`` is a
constant per process — measured with ``tracemalloc``, no timing.
"""

from __future__ import annotations

import copy
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import (
    GroupWorkloadConfig,
    PointToPointWorkloadConfig,
    SystemConfig,
)
from repro.core.system import MobileSystem
from repro.sim.rng import raw_rng
from repro.workload.base import _Slot
from repro.workload.bursty import BurstyWorkload, BurstyWorkloadConfig
from repro.workload.group import GroupWorkload
from repro.workload.point_to_point import PointToPointWorkload


def _system(n: int) -> MobileSystem:
    config = SystemConfig(n_processes=n, seed=5, trace_messages=False)
    return MobileSystem(config, MutableCheckpointProtocol())


def _record_sends(workload, pid, send=None):
    """Put a connected stand-in in place of process ``pid``; what the
    workload sends from it goes to ``send(dst)``, or into the list
    returned."""
    picks = []
    workload.system.processes[pid] = SimpleNamespace(
        host=SimpleNamespace(disconnected=False),
        send_computation=lambda dst, payload: (send or picks.append)(dst),
    )
    return picks


# -- (a) draw parity -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_choice_over_the_view_is_choice_over_the_list(n):
    """A send's draw over a slot's view of its peers, ``_randbelow``'s
    ``getrandbits`` rejection loop made inline and an index skip, is
    ``choice`` over the materialised list."""
    pids = list(range(100, 100 + n))  # pids need not be their own index
    workload = PointToPointWorkload(_system(2), PointToPointWorkloadConfig(1.0))
    workload._running = True
    for skip, pid in enumerate(pids):
        over_slot, over_list = raw_rng(pid), raw_rng(pid)
        workload._slots[pid] = _Slot(
            pid, raw_rng(pid + n).random, over_slot.getrandbits, pids, skip, 1.0
        )
        picks = _record_sends(workload, pid)
        for _ in range(200):
            workload._fire(pid)
        materialised = [p for p in pids if p != pid]
        assert picks == [over_list.choice(materialised) for _ in range(200)]


def _picks(workload, slot, pid, stream_name, candidates, draws=200):
    """What ``pid`` sends to over ``draws`` sends of ``slot``, and what
    ``choice`` over the materialised candidate list draws from a twin
    of the destination stream."""
    workload._running = True
    workload._slots[slot]  # binds the slot; its first send draws from the stream twinned here
    twin = copy.deepcopy(workload.system.streams.stream(stream_name))
    picks = _record_sends(workload, pid)
    for _ in range(draws):
        workload._fire(slot)
    materialised = [p for p in candidates if p != pid]
    return picks, [twin.choice(materialised) for _ in range(draws)]


def _ends(n):
    return sorted({0, n - 1})  # the skipped pid first and last in its list


@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_p2p_pick_is_choice_over_the_list(n):
    for pid in _ends(n):
        system = _system(n)
        workload = PointToPointWorkload(system, PointToPointWorkloadConfig(1.0))
        picks, expected = _picks(
            workload, pid, pid, f"workload.p2p.dst.{pid}", range(n)
        )
        assert picks == expected


@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_group_picks_are_choice_over_the_list(n):
    for pid in _ends(n):
        # one group of everyone: intragroup sends pick among all others
        system = _system(n)
        workload = GroupWorkload(system, GroupWorkloadConfig(mean_send_interval=1.0, n_groups=1))
        picks, expected = _picks(
            workload, pid, pid, f"workload.group.intra.dst.{pid}", range(n),
        )
        assert picks == expected
        # groups of one: every pid leads, intergroup sends (slot n + its
        # group) pick a leader
        system = _system(n)
        workload = GroupWorkload(system, GroupWorkloadConfig(mean_send_interval=1.0, n_groups=n))
        picks, expected = _picks(
            workload, n + workload.group_of[pid], pid,
            f"workload.group.inter.dst.{pid}", workload.leaders,
        )
        assert picks == expected


@pytest.mark.parametrize("n", [2, 3, 16, 257])
def test_bursty_pick_is_choice_over_the_list(n):
    for pid in _ends(n):
        system = _system(n)
        workload = BurstyWorkload(system, BurstyWorkloadConfig())
        workload._on[pid] = True
        picks, expected = _picks(
            workload, pid, pid, f"bursty.dst.{pid}", range(n)
        )
        assert picks == expected


# -- (b) start-up and per-send memory: O(1) per process --------------------------

N_BIG = 2048
#: bytes a workload may keep per process from its own frames: stream
#: names, bound draws, one slot record, table entries (~0.45 kB; a materialised
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

    def send(dst):
        # what _fire holds while the message goes out, seen from inside it
        if tracemalloc.is_tracing():
            during_send.append(tracemalloc.take_snapshot())

    _record_sends(workload, 7, send)
    workload._fire(7)  # the first send builds the shared table, once
    tracemalloc.start()
    try:
        workload._fire(7)
    finally:
        tracemalloc.stop()
    assert len(during_send) == 1
    assert _workload_bytes(during_send[0]) <= 1024
