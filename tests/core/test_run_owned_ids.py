"""Ids belong to the run that issues them.

A ``ckpt_id`` or ``msg_id`` only has to be unique within one run, so
each ``MobileSystem`` and each ``ScenarioHarness`` numbers its own from
0. Runs sharing an interpreter, in any order, then produce the traces
they produce alone, and a snapshot carries its own system's sequence
whatever was built after it.
"""

from __future__ import annotations

import pytest

from repro.campaign.engine import build_point_runtime
from repro.campaign.spec import RunPoint
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.errors import SimulationError
from repro.scenarios.harness import ScenarioHarness
from repro.snapshot.state import capture, restore

BUDGET = 1_000_000


def _point(protocol: str, n: int, seed: int) -> RunPoint:
    return RunPoint(
        protocol=protocol, workload="p2p",
        workload_params={"mean_send_interval": 15.0},
        system_params={"n_processes": n, "trace_messages": True},
        run_params={"max_initiations": 4, "warmup_initiations": 1},
        seed=seed,
    )


A = _point("mutable", 8, 11)
B = _point("koo-toueg", 12, 5)


def _alone(point: RunPoint) -> str:
    system, _, runner = build_point_runtime(point)
    runner.run(max_events=BUDGET)
    return system.sim.trace.content_hash()


def test_systems_built_together_run_as_if_alone():
    expected = [_alone(A), _alone(B)]
    a, _, run_a = build_point_runtime(A)
    b, _, run_b = build_point_runtime(B)
    run_a.run(max_events=BUDGET)
    run_b.run(max_events=BUDGET)
    assert [a.sim.trace.content_hash(), b.sim.trace.content_hash()] == expected


def test_a_snapshot_resumes_with_its_own_id_sequence():
    expected = _alone(A)
    _, _, runner = build_point_runtime(A)
    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=400)
    build_point_runtime(B)  # another system, built after the cut
    image = restore(capture(runner))
    image.runner.resume(max_events=BUDGET)
    assert image.system.sim.trace.content_hash() == expected


def test_every_scenario_harness_numbers_from_zero():
    for _ in range(2):
        harness = ScenarioHarness(3, MutableCheckpointProtocol())
        assert [r.ckpt_id for pid in range(3)
                for r in harness.storage.checkpoints_of(pid)] == [0, 1, 2]
        assert harness.send(0, 1).message.msg_id == 0
        harness.initiate(2)
        harness.deliver_everything()
        ids = [r.ckpt_id for pid in range(3) for r in harness.storage.checkpoints_of(pid)]
        assert len(set(ids)) == len(ids) and max(ids) < next(harness.checkpoint_ids)
