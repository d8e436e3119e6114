"""Output-commit delay (the Table 1 column, measured end to end).

The paper: ours ≈ N_min·T_ch, EJZ ≈ N·T_ch — fewer processes must reach
stable storage before the outside world sees the output.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_util import build_system
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig
from repro.core.output_commit import OutputCommitManager
from repro.workload.point_to_point import PointToPointWorkload


def measure_delays(protocol, seed=5, outputs=4, mean_interval=200.0):
    system = build_system(protocol, seed=seed)
    manager = OutputCommitManager(system)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(mean_interval))
    workload.start()
    system.sim.run(until=400.0)
    for i in range(outputs):
        manager.request_output(i % system.config.n_processes, payload=i)
        system.sim.run(until=system.sim.now + 300.0)
    workload.stop()
    system.run_until_quiescent()
    return manager.delay_summary()


def test_output_commit_mutable_vs_elnozahy(benchmark):
    def run():
        mutable = measure_delays(MutableCheckpointProtocol())
        ejz = measure_delays(ElnozahyProtocol())
        return mutable, ejz

    mutable, ejz = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\noutput commit delay: mutable={mutable.mean:.2f}s (n={mutable.n}) "
          f"vs elnozahy={ejz.mean:.2f}s (n={ejz.n})")
    benchmark.extra_info.update(
        {"mutable_s": round(mutable.mean, 2), "elnozahy_s": round(ejz.mean, 2)}
    )
    assert mutable.n >= 3 and ejz.n >= 3
    # min-process releases output faster than all-process (N_min < N)
    assert mutable.mean < ejz.mean


def test_output_commit_scales_with_n_min(benchmark):
    """Sparser communication -> smaller N_min -> faster output commit."""

    def run():
        sparse = measure_delays(MutableCheckpointProtocol(), mean_interval=500.0)
        dense = measure_delays(MutableCheckpointProtocol(), mean_interval=50.0)
        return sparse, dense

    sparse, dense = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\noutput commit: sparse={sparse.mean:.2f}s dense={dense.mean:.2f}s")
    assert sparse.mean < dense.mean
