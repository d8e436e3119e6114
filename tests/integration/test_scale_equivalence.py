"""Delta-piggyback / array-state equivalence matrix.

The scaling work (sparse :class:`~repro.analysis.vector_clock.VCDelta`
message stamps, array-backed protocol state) must be *invisible* to
every observable of a run: same trace ``content_hash``, same metrics
snapshot, same final vector clocks, at every population. Each cell runs
the same (protocol, population, seed) twice — once as built, and once
with every process's clock swapped for the full-vector reference
(:class:`tests.analysis._dense_reference.DenseVectorClock` in its
full-stamp mode, which stamps every message with its whole clock) — and
requires byte-identical results.

The 16p cells are additionally anchored to the PR-5 golden hash: the
fast-path witness run (config B of ``test_fastpath_determinism``) must
reproduce its pre-overhaul golden trace hash with *either* clock,
pinning the whole stack to a value captured before any of the scaling
machinery existed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import available_protocols, build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SimulationError
from repro.workload.point_to_point import PointToPointWorkload

from tests.analysis._dense_reference import DenseVectorClock

#: pre-overhaul golden for the 16p trace-off witness run (config B of
#: test_fastpath_determinism, captured on commit 2258971)
GOLDEN_16P_TRACE_HASH = (
    "792922785025ba7fd51a3cbfc9716c6bda78f8ff1e729b7cda2aca42f2d38be7"
)

POPULATIONS = (16, 64, 256)
SEEDS = (3, 11, 20260806)


def full_stamped(system: MobileSystem) -> MobileSystem:
    """``system`` with the full-stamp reference clock in every process."""
    n = system.config.n_processes
    for pid, process in system.processes.items():
        process.vc = DenseVectorClock(pid, n)
    return system


def _run(protocol_name: str, n: int, seed: int, mode: str):
    config = SystemConfig(n_processes=n, seed=seed, checkpoint_interval=30.0)
    system = MobileSystem(config, build_protocol(protocol_name))
    if mode == "full":
        full_stamped(system)
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=10_000, time_limit=120.0),
    )
    try:
        runner.run(max_events=200_000)
    except SimulationError:
        # Some (protocol, seed) cells generate event storms far past
        # any practical budget (pre-existing, unrelated to stamping).
        # Equivalence is about *determinism*, not completion: both
        # modes must hit the same budget at the same trace prefix, so
        # the bounded observables below still compare byte for byte.
        pass
    return system


def _observables(system, n: int):
    system.sim.flush_metrics()
    return {
        "trace_hash": system.sim.trace.content_hash(),
        "metrics_sha256": hashlib.sha256(
            json.dumps(system.metrics.snapshot(), sort_keys=True).encode()
        ).hexdigest(),
        "events": system.sim.events_processed,
        "sim_time": system.sim.now,
        # the trace hash cannot see vector clocks (they are never
        # traced), so compare the final clocks directly: this is the
        # state the delta encoding could silently corrupt
        "final_vcs": tuple(
            system.processes[pid].vc.snapshot() for pid in range(n)
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", POPULATIONS)
@pytest.mark.parametrize("protocol_name", available_protocols())
def test_delta_mode_matches_full_reference(protocol_name, n, seed):
    delta_obs = _observables(_run(protocol_name, n, seed, "delta"), n)
    full_obs = _observables(_run(protocol_name, n, seed, "full"), n)
    assert delta_obs == full_obs


@pytest.mark.parametrize("mode", ["delta", "full"])
def test_16p_witness_matches_pr5_golden(mode):
    """Both clocks reproduce the pre-overhaul golden hash."""
    config = SystemConfig(n_processes=16, seed=7, trace_messages=False)
    system = MobileSystem(config, build_protocol("mutable"))
    if mode == "full":
        full_stamped(system)
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    runner.run(max_events=10_000_000)
    assert system.sim.trace.content_hash() == GOLDEN_16P_TRACE_HASH
