"""Tests for run-result aggregation."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import InitiationStats
from repro.checkpointing.types import Trigger
from repro.core.results import RunResult


def make_result():
    stats = []
    for i, (tent, mut, red) in enumerate([(4, 1, 1), (6, 2, 0), (5, 0, 0)]):
        s = InitiationStats(
            trigger=Trigger(i, 1),
            initiation_time=float(i * 100),
            commit_time=float(i * 100 + 2),
            tentative_count=tent,
            mutable_count=mut,
            redundant_mutables=red,
        )
        stats.append(s)
    return RunResult(
        protocol="mutable",
        n_processes=8,
        seed=1,
        initiations=stats,
        counters={"system_messages": 30.0, "broadcasts": 3.0},
        total_blocked_time=0.0,
        sim_time=300.0,
        wall_events=1000,
    )


def test_summaries():
    r = make_result()
    assert r.tentative_summary().mean == pytest.approx(5.0)
    assert r.redundant_mutable_summary().mean == pytest.approx(1 / 3)
    assert r.duration_summary().mean == pytest.approx(2.0)


def test_redundant_ratio():
    r = make_result()
    assert r.redundant_ratio == pytest.approx(1 / 15)


def test_redundant_ratio_empty():
    r = RunResult(protocol="mutable", n_processes=8, seed=1)
    assert r.redundant_ratio == 0.0


def test_dict_round_trip_lossless():
    """to_dict/from_dict is lossless, including through JSON."""
    import json

    r = make_result()
    r.initiations[0].abort_time = 5.0
    r.initiations[0].participants = [0, 2, 5]
    r.initiations[1].promoted_mutables = 2
    r.initiations[2].permanent_count = 4

    restored = RunResult.from_dict(r.to_dict())
    assert restored == r
    assert isinstance(restored.initiations[0].trigger, Trigger)

    via_json = RunResult.from_dict(json.loads(json.dumps(r.to_dict())))
    assert via_json == r
    assert via_json.to_dict() == r.to_dict()


def test_dict_round_trip_from_real_run():
    """A result from an actual simulation survives the round trip."""
    from repro.checkpointing.mutable import MutableCheckpointProtocol
    from repro.core.config import (
        PointToPointWorkloadConfig,
        RunConfig,
        SystemConfig,
    )
    from repro.core.runner import ExperimentRunner
    from repro.core.system import MobileSystem
    from repro.workload.point_to_point import PointToPointWorkload

    system = MobileSystem(
        SystemConfig(n_processes=4, seed=5), MutableCheckpointProtocol()
    )
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(30.0))
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=3, warmup_initiations=1)
    )
    result = runner.run(max_events=2_000_000)
    restored = RunResult.from_dict(result.to_dict())
    assert restored == result
    assert restored.paper_row() == result.paper_row()


def test_row_flattens():
    row = make_result().paper_row()
    assert row["initiations"] == 3
    assert row["tentative_mean"] == pytest.approx(5.0)
    assert row["duration_s"] == pytest.approx(2.0)
