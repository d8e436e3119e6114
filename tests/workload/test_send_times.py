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
    """Run ``workload`` until each callback named in ``draws`` has been
    scheduled ``SENDS`` times, checking every time against a twin.

    ``draws`` maps a callback name to ``(stream name of a pid, lambd,
    pids that schedule it)``.
    """
    streams = system.streams
    twins = {
        (name, pid): copy.deepcopy(streams.stream(stream_of(pid)))
        for name, (stream_of, _, pids) in draws.items()
        for pid in pids
    }
    counts = dict.fromkeys(draws, 0)
    sim = system.sim
    schedule_at = sim.schedule_at

    def spy(when, callback, *args, **kwargs):
        if getattr(callback, "__self__", None) is workload:
            name, (pid,) = callback.__name__, args
            twin, lambd = twins[name, pid], draws[name][1]
            assert when == sim._now + twin.expovariate(lambd), (name, pid)
            counts[name] += 1
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
        "_fire": (lambda pid: f"workload.p2p.{pid}",
                  1.0 / config.mean_send_interval, range(n)),
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
        "_fire_intra": (lambda pid: f"workload.group.intra.{pid}",
                        1.0 / config.mean_send_interval, range(n)),
        "_fire_inter": (lambda pid: f"workload.group.inter.{pid}",
                        1.0 / inter_mean, workload.leaders),
    })


@pytest.mark.parametrize("n", [2, 16, 257])
def test_bursty_period_and_send_times(n):
    system = _system(n)
    config = BurstyWorkloadConfig(burst_send_interval=0.5, mean_on=5.0, mean_off=5.0)
    workload = BurstyWorkload(system, config)
    _check_schedule_times(system, workload, {
        "_burst_start": (lambda pid: f"bursty.off.{pid}",
                         1.0 / config.mean_off, range(n)),
        "_burst_end": (lambda pid: f"bursty.on.{pid}",
                       1.0 / config.mean_on, range(n)),
        "_fire": (lambda pid: f"bursty.send.{pid}",
                  1.0 / config.burst_send_interval, range(n)),
    })
