"""Tests for concurrent-initiation handling (§3.5).

The §3.3 algorithm assumes at most one checkpointing at a time, and the
runner serializes initiations by default. ``RunConfig``'s
``serialize_initiations=False`` lets them overlap, and these tests show
the assumption is load-bearing: recovery lines assembled from the newest
permanent checkpoints then contain orphan messages, the
union-of-global-checkpoints problem Prakash-Singhal [27] solves.
"""

from __future__ import annotations

from repro.analysis.consistency import (
    check_channel_counts,
    find_orphans,
    latest_permanent_line,
)
from repro.campaign import RunPoint, build_point_runtime


def hazard_point(seed, serialize, n_processes=16, initiations=10):
    """A dense-initiation mutable run: 60 s timers, 10 s sends."""
    return RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 10.0},
        system_params={"n_processes": n_processes, "checkpoint_interval": 60.0},
        run_params={
            "max_initiations": initiations,
            "warmup_initiations": 1,
            "serialize_initiations": serialize,
        },
        seed=seed,
        max_events=5_000_000,
    )


def recovery_line_verdict(point):
    """(orphan count, channel counts consistent) of the final line."""
    system, _, runner = build_point_runtime(point)
    runner.run(max_events=point.max_events)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    return len(find_orphans(system.sim.trace, line)), check_channel_counts(line)


def test_serialized_initiations_always_consistent():
    for seed in (1, 2, 3):
        point = hazard_point(seed, True, n_processes=8, initiations=6)
        assert recovery_line_verdict(point) == (0, True), (
            f"seed {seed} inconsistent under serialization"
        )


def test_unrestricted_initiations_break_consistency_somewhere():
    """The single-initiation assumption is load-bearing: overlapping
    initiations produce orphaned recovery lines for most seeds."""
    verdicts = [
        recovery_line_verdict(hazard_point(seed, False, n_processes=8, initiations=8))
        for seed in range(1, 6)
    ]
    assert any(verdict != (0, True) for verdict in verdicts)

