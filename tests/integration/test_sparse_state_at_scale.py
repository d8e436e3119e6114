"""A build holds no n-entry zero vector per process; a run is none the wiser.

n processes that each allocate an n-entry clock, ``csn`` and
``commit_known`` are n² zeros before the first event (410 of the 472 MB
of a 4096p build; docs/SCALING.md, "Zero clocks are resident"). The
clock now holds only its entries until its first whole-vector operation
and :class:`~repro.checkpointing.state.IntVector` only its non-zero
ones; ``tests/scale`` bounds the resident size of big builds, this file
holds the structure and the equivalence in tier-1.
"""

from __future__ import annotations

from repro.checkpointing.state import IntVector
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SimulationError
from repro.workload.point_to_point import PointToPointWorkload

from tests.analysis._dense_reference import DenseVectorClock
from tests.integration.test_scale_equivalence import full_stamped

N = 256


def _runner(mode: str) -> ExperimentRunner:
    config = SystemConfig(
        n_processes=N, seed=11, checkpoint_interval=30.0, trace_messages=False,
    )
    system = MobileSystem(config, build_protocol("mutable"))
    if mode == "full":
        full_stamped(system)
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    return ExperimentRunner(
        system, workload, RunConfig(max_initiations=10_000, time_limit=1e9)
    )


def test_a_build_allocates_no_vector_per_process():
    system = _runner("delta").system
    assert len(system.processes) == N
    for process in system.processes.values():
        assert process.vc._array is None and not process.vc._cells
        vectors = [
            value for value in vars(process.protocol_process).values()
            if isinstance(value, IntVector)
        ]
        assert len(vectors) == 2  # csn, commit_known
        assert all(len(vec) == N and len(vec._d) <= 1 for vec in vectors)


def _drive(mode: str, events: int) -> MobileSystem:
    runner = _runner(mode)
    try:
        runner.run(max_events=events)
    except SimulationError:
        pass  # the budget is the point
    return runner.system


def test_clocks_that_went_dense_mid_run_equal_the_full_stamp_run():
    early = _drive("delta", 3_000)
    assert all(p.vc._array is None for p in early.processes.values())

    # by 10k events deltas have crossed the cap: the run is in its
    # full-stamp phase, and the clocks a full stamp reached are arrays
    delta, full = _drive("delta", 10_000), _drive("full", 10_000)
    dense = [p.pid for p in delta.processes.values() if p.vc._array is not None]
    assert N // 2 < len(dense)
    assert all(type(p.vc) is DenseVectorClock for p in full.processes.values())
    for pid in range(N):
        mine, reference = delta.processes[pid].vc, full.processes[pid].vc
        assert mine.snapshot() == reference.snapshot()
        assert mine.clock.tolist() == reference.clock.tolist()
    assert [p.protocol_process.csn.tolist() for p in delta.processes.values()] == [
        p.protocol_process.csn.tolist() for p in full.processes.values()
    ]
