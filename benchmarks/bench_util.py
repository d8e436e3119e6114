"""Shared helpers for the benchmark suite, built on ``repro.campaign``.

Each bench regenerates one of the paper's tables or figures on a scale
that runs in seconds. Absolute numbers differ from the paper's 1999
testbed; the *shape* assertions (who wins, monotonicity, crossovers) are
checked by the test suite — benches print the rows so the results can be
compared with the paper side by side (see EXPERIMENTS.md).

Every run is a :class:`~repro.campaign.spec.RunPoint` assembled by the
campaign engine's one builder. The paper-experiment benches (Figs. 5/6,
Table 1) expand the preset catalogue; the ablations describe their own
point with :func:`bench_point` and either run it (:func:`run_bench`) or
take the pieces (:func:`build_bench`, :func:`build_system`). ``protocol``
is a registry name or — for variants that only exist as constructor
arguments — a pre-built instance injected into the same builder.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.campaign.engine import (
    build_point_runtime,
    build_point_system,
    run_point,
)
from repro.campaign.spec import RunPoint
from repro.checkpointing.protocol import CheckpointProtocol
from repro.core.results import RunResult
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.base import Workload

#: initiations measured per data point (paper: "a large number of
#: samples"; enough here for stable means at bench runtimes)
DEFAULT_INITIATIONS = 22
DEFAULT_WARMUP = 2

Protocol = Union[str, CheckpointProtocol]


def bench_point(
    protocol: Protocol = "mutable",
    workload: str = "p2p",
    workload_params: Optional[Dict[str, Any]] = None,
    seed: int = 11,
    initiations: int = DEFAULT_INITIATIONS,
    warmup: int = DEFAULT_WARMUP,
    time_limit: Optional[float] = None,
    **system_params: Any,
) -> Tuple[RunPoint, Optional[CheckpointProtocol]]:
    """One bench run as a campaign point (+ the instance to inject).

    Defaults are the §5.1 system — 16 processes, one cell — with message
    tracing off; ``system_params`` override :class:`SystemConfig` fields.
    """
    instance = None if isinstance(protocol, str) else protocol
    point = RunPoint(
        protocol=protocol if instance is None else instance.name,
        workload=workload,
        workload_params=workload_params or {},
        system_params={
            "n_processes": 16, "trace_messages": False, **system_params
        },
        run_params={
            "max_initiations": initiations,
            "warmup_initiations": warmup,
            "time_limit": time_limit,
        },
        seed=seed,
    )
    return point, instance


def run_bench(protocol: Protocol = "mutable", **kwargs: Any) -> RunResult:
    """Run one :func:`bench_point` to completion."""
    point, instance = bench_point(protocol, **kwargs)
    return run_point(point, protocol=instance)


def build_bench(
    protocol: Protocol = "mutable", **kwargs: Any
) -> Tuple[MobileSystem, Workload, ExperimentRunner]:
    """System, workload and runner of one :func:`bench_point`, for benches
    that read the system after ``runner.run(max_events=DEFAULT_MAX_EVENTS)``
    (the campaign runaway guard, :mod:`repro.campaign.spec`)."""
    point, instance = bench_point(protocol, **kwargs)
    return build_point_runtime(point, protocol=instance)


def build_system(protocol: Protocol = "mutable", **kwargs: Any) -> MobileSystem:
    """The bare system of one :func:`bench_point`, for hand-driven scripts."""
    point, instance = bench_point(protocol, **kwargs)
    return build_point_system(point, protocol=instance)


def run_point_to_point(
    protocol: Protocol, mean_send_interval: float, **kwargs: Any
) -> RunResult:
    """One Fig. 5-style data point (uniform point-to-point traffic)."""
    return run_bench(
        protocol,
        workload_params={"mean_send_interval": mean_send_interval},
        **kwargs,
    )
