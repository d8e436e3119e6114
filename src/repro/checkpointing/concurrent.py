"""Concurrent checkpoint initiations (paper §3.5).

The §3.3 algorithm is presented under the assumption that *at most one
checkpointing is in progress at a time*; §3.5 sketches two ways to lift
it: the simple Koo-Toueg rule (defer or refuse a second initiation) and
the Prakash-Singhal combination technique of [27].

This module provides:

* :class:`ConcurrencyPolicy` + :func:`make_runner` — build an
  :class:`~repro.core.runner.ExperimentRunner` with initiations either
  SERIALIZED (the paper's assumption, and the default everywhere in this
  reproduction) or UNRESTRICTED (initiations may overlap freely);
* :func:`concurrent_initiation_hazard` — an executable demonstration
  that the assumption is load-bearing: with UNRESTRICTED initiations,
  recovery lines assembled from the newest permanent checkpoints can
  contain orphan messages. This is the union-of-global-checkpoints
  problem [27] solves; reproducing the hazard (rather than hiding it)
  documents exactly where the paper's guarantees stop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.consistency import (
    check_channel_counts,
    find_orphans,
    latest_permanent_line,
)
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.base import Workload
from repro.workload.point_to_point import PointToPointWorkload


class ConcurrencyPolicy(enum.Enum):
    """How simultaneous initiation attempts are handled."""

    #: defer later initiations until the active one commits (paper §3.3)
    SERIALIZED = "serialized"
    #: let initiations overlap freely (unsafe; for the hazard demo)
    UNRESTRICTED = "unrestricted"


def make_runner(
    system: MobileSystem,
    workload: Workload,
    run_config: RunConfig,
    policy: ConcurrencyPolicy = ConcurrencyPolicy.SERIALIZED,
) -> ExperimentRunner:
    """An experiment runner configured for the given concurrency policy."""
    return ExperimentRunner(
        system,
        workload,
        run_config,
        serialize_initiations=(policy is ConcurrencyPolicy.SERIALIZED),
    )


@dataclass
class HazardReport:
    """Outcome of one hazard run."""

    seed: int
    policy: ConcurrencyPolicy
    orphan_count: int
    channel_counts_consistent: bool

    @property
    def consistent(self) -> bool:
        return self.orphan_count == 0 and self.channel_counts_consistent


def concurrent_initiation_hazard(
    seed: int,
    policy: ConcurrencyPolicy,
    n_processes: int = 16,
    checkpoint_interval: float = 60.0,
    mean_send_interval: float = 10.0,
    initiations: int = 10,
) -> HazardReport:
    """Run a dense-initiation workload and check the recovery line.

    With SERIALIZED initiations the line is always consistent (the
    paper's Theorem 1); with UNRESTRICTED it usually is not — the
    empirical counterpart of the §3.3 assumption.
    """
    config = SystemConfig(
        n_processes=n_processes,
        seed=seed,
        checkpoint_interval=checkpoint_interval,
    )
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval)
    )
    runner = make_runner(
        system,
        workload,
        RunConfig(max_initiations=initiations, warmup_initiations=1),
        policy,
    )
    runner.run(max_events=5_000_000)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    orphans = find_orphans(system.sim.trace, line)
    return HazardReport(
        seed=seed,
        policy=policy,
        orphan_count=len(orphans),
        channel_counts_consistent=check_channel_counts(line),
    )
