"""Large-population smoke tier (``pytest -m scale``).

A 1024-process run must complete its coordination waves, pass the full
six-invariant suite unchanged, and keep its per-event cost within a
constant factor of a small population's — the quadratic per-message
blowup the scaling work removed would show up here as a ~16x ratio.
Its snapshot image must stay a constant number of kB per process.

Excluded from the default suite by the ``-m "not scale"`` addopts;
exercised by the ``scale-smoke`` CI job alongside the benchmark
ladder's ``--check`` gate.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SimulationError
from repro.explore.invariants import check_invariants
from repro.snapshot import capture, restore
from repro.workload.point_to_point import PointToPointWorkload

pytestmark = pytest.mark.scale

#: the 1024p per-event rate may be at most this many times slower than
#: 32p. The acceptance target is 4x (see BENCH_kernel.json); the gate
#: leaves headroom for CI machine noise while still catching any
#: O(N)-per-message regression (which measures ~16x).
MAX_RATE_RATIO = 8.0


def _timed_run(n: int):
    config = SystemConfig(n_processes=n, seed=7, checkpoint_interval=30.0)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=5.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=3, warmup_initiations=1)
    )
    start = time.perf_counter()
    result = runner.run(max_events=5_000_000)
    elapsed = time.perf_counter() - start
    return system, result, system.sim.events_processed / elapsed


def test_1024p_run_completes_with_invariants_and_rate_floor():
    small_system, _, small_rate = _timed_run(32)
    system, result, rate = _timed_run(1024)

    # completion: the run reached its committed-initiation target, it
    # was not cut short by the event budget or a drained queue
    assert result.n_initiations == 2
    assert system.sim.events_processed > 10_000

    # the six-invariant suite, unchanged, on the full 1024p trace
    violations = check_invariants(system.sim.trace)
    assert violations == []

    # events/s floor, expressed as a ratio so the gate tracks the
    # machine: a quadratic per-message cost would blow well past it
    assert small_rate > 0
    assert rate >= small_rate / MAX_RATE_RATIO, (
        f"1024p rate {rate:,.0f} ev/s is more than {MAX_RATE_RATIO}x below "
        f"32p rate {small_rate:,.0f} ev/s"
    )


#: a 1024p crash-resume image, cut where ``benchmarks/e2e`` cuts it. As
#: pickled ints, ndarrays and peer lists it was 29.8 MB; as packed bytes
#: with shared peer views 10.7 MB; without the 1 024 stagger streams,
#: each drawn from once, it is 8.1 MB, nearly all of it the 2 048
#: Mersenne states (2.5 kB each) the workload goes on drawing from
MAX_IMAGE_MB = 10.0


def test_1024p_snapshot_image_stays_compact():
    point = RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 1.0},
        system_params={"n_processes": 1024, "n_mss": 8, "trace_messages": False},
        run_params={"max_initiations": 10**6, "warmup_initiations": 1},
        seed=11,
    )
    system, _, runner = build_point_runtime(point)
    with pytest.raises(SimulationError, match="max_events"):
        runner.run(max_events=10_000)
    payload = capture(runner)
    assert len(payload) / 1e6 <= MAX_IMAGE_MB

    image = restore(payload)
    assert image.system.sim.events_processed == 10_000
    assert [p.capture_channels() for p in image.system.processes.values()] == [
        p.capture_channels() for p in system.processes.values()
    ]
