"""Every workload schedules its next send at ``now + expovariate(lambd)``.

The workloads draw a delay from a stream's C ``random`` as
``-log(1.0 - random()) / lambd`` and schedule at the absolute time
``sim._now + delay``. Pinned here: each time a workload schedules, over
a run of at least 200 of every kind of draw, equals ``now +
twin.expovariate(lambd)`` on a deep copy of the stream taken before the
run, with ``lambd`` computed as the configuration's ``1.0 / mean``.
"""

from __future__ import annotations

import copy

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import (
    GroupWorkloadConfig,
    PointToPointWorkloadConfig,
    SystemConfig,
)
from repro.core.system import MobileSystem
from repro.workload.bursty import BurstyWorkload, BurstyWorkloadConfig
from repro.workload.group import GroupWorkload
from repro.workload.point_to_point import PointToPointWorkload

SENDS = 200
MAX_EVENTS = 500_000


def _system(n: int) -> MobileSystem:
    config = SystemConfig(n_processes=n, seed=5, trace_messages=False)
    return MobileSystem(config, MutableCheckpointProtocol())


def _check_schedule_times(system, workload, draws):
    """Run ``workload`` until each kind of draw in ``draws`` has been
    scheduled ``SENDS`` times, checking every time against a twin.

    ``draws`` maps a kind of draw to ``(callback name, lambd, {argument
    the callback is scheduled with: stream name})``: a send's argument is
    its slot, a bursty period's its pid.
    """
    streams = system.streams
    twins = {
        (name, arg): (kind, lambd, copy.deepcopy(streams.stream(stream_name)))
        for kind, (name, lambd, stream_of) in draws.items()
        for arg, stream_name in stream_of.items()
    }
    counts = dict.fromkeys(draws, 0)
    sim = system.sim
    schedule_at = sim.schedule_at

    def spy(when, callback, *args, **kwargs):
        if getattr(callback, "__self__", None) is workload:
            key = (callback.__name__, *args)
            kind, lambd, twin = twins[key]
            assert when == sim._now + twin.expovariate(lambd), key
            counts[kind] += 1
        schedule_at(when, callback, *args, **kwargs)

    sim.schedule_at = spy
    workload.start()
    while min(counts.values()) < SENDS:
        assert sim.step(), f"the queue ran dry at {counts}"
        assert sim.events_processed < MAX_EVENTS, counts


@pytest.mark.parametrize("n", [2, 16, 257])
def test_p2p_send_times(n):
    system = _system(n)
    config = PointToPointWorkloadConfig(1.0)
    workload = PointToPointWorkload(system, config)
    _check_schedule_times(system, workload, {
        "send": ("_fire", 1.0 / config.mean_send_interval,
                 {pid: f"workload.p2p.{pid}" for pid in range(n)}),
    })


@pytest.mark.parametrize("n", [2, 16, 257])
def test_group_send_times(n):
    system = _system(n)
    # one group at 2p, four at 16p, groups of one at 257p (a prime)
    config = GroupWorkloadConfig(
        mean_send_interval=1.0, n_groups={2: 1, 16: 4, 257: 257}[n],
        intra_inter_ratio=3.0,
    )
    workload = GroupWorkload(system, config)
    inter_mean = config.mean_send_interval * config.intra_inter_ratio
    _check_schedule_times(system, workload, {
        "intra": ("_fire", 1.0 / config.mean_send_interval,
                  {pid: f"workload.group.intra.{pid}" for pid in range(n)}),
        "inter": ("_fire", 1.0 / inter_mean,
                  {n + group: f"workload.group.inter.{leader}"
                   for group, leader in enumerate(workload.leaders)}),
    })


@pytest.mark.parametrize("n", [2, 16, 257])
def test_bursty_period_and_send_times(n):
    system = _system(n)
    config = BurstyWorkloadConfig(burst_send_interval=0.5, mean_on=5.0, mean_off=5.0)
    workload = BurstyWorkload(system, config)
    _check_schedule_times(system, workload, {
        "off": ("_burst_start", 1.0 / config.mean_off,
                {pid: f"bursty.off.{pid}" for pid in range(n)}),
        "on": ("_burst_end", 1.0 / config.mean_on,
               {pid: f"bursty.on.{pid}" for pid in range(n)}),
        "send": ("_fire", 1.0 / config.burst_send_interval,
                 {pid: f"bursty.send.{pid}" for pid in range(n)}),
    })
