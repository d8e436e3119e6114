"""Experiment configuration.

Defaults reproduce the paper's simulation model (§5.1): N = 16 processes,
one per MH, a single-cell 2 Mbps wireless LAN, 1 KB computation messages,
50 B system messages, 512 KB incremental checkpoints, and a 900 s
checkpoint interval per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.errors import ConfigurationError
from repro.net.params import NetworkParams


def build_config(cls: type, params: Mapping[str, Any], what: str) -> Any:
    """``cls(**params)``, refusing a key that names no field of ``cls``."""
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        keys = ", ".join(map(repr, unknown))
        raise ConfigurationError(f"unknown {what} key(s): {keys}")
    return cls(**params)


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one simulated system.

    Attributes
    ----------
    n_processes:
        Number of application processes; one per mobile host unless
        ``processes_on_mss`` places some on support stations.
    n_mss:
        Number of support stations (cells). The paper's evaluation uses a
        single wireless LAN, i.e. one cell.
    processes_on_mss:
        Of the ``n_processes``, how many run on support stations instead
        of mobile hosts (static hosts need no wireless transfer for
        their checkpoints). The paper's evaluation uses zero.
    seed:
        Master seed for all random streams.
    checkpoint_interval:
        Per-process initiation period in seconds (paper: 900 s).
    checkpoint_size_bytes:
        Incremental checkpoint size shipped to stable storage
        (paper: 512 KB of a 1 MB full state).
    network:
        Physical-layer constants.
    trace_messages:
        Record every computation send/receive in the trace. Required by
        the consistency checkers; can be disabled for very long runs.
    trace_debug_capacity:
        Flight-recorder mode: keep message-level (DEBUG) tracing on but
        retain only the most recent this-many DEBUG records in a ring
        buffer (INFO lifecycle records are always kept in full). Bounds
        trace memory for long runs while the final waves stay fully
        explainable; implies DEBUG-level tracing regardless of
        ``trace_messages``.
    timeseries_window:
        Sim-time window (seconds) of the telemetry sampler
        (:class:`repro.obs.timeseries.TimeseriesSampler`): selected
        metric series are snapshotted once per window into a bounded
        ring carried on the RunResult. ``None`` (the default) disables
        sampling entirely — no sampler is built and no kernel hook is
        armed.
    shards:
        Assign the cells round-robin to this many shards and report, in
        ``RunResult.shard_stats``, the traffic that crossed them
        (:meth:`repro.sim.shard.ShardedSimulator.shard_report`). The
        run itself is the ``shards=1`` run — same loop, same heap — so
        every other result is identical; ``1`` (the default) reports
        nothing. The windowed execution mode this once selected was
        deleted (docs/SCALING.md, "Sharded kernel").
    """

    n_processes: int = 16
    n_mss: int = 1
    #: how many of the processes run directly on support stations (the
    #: §2.1 model allows both); the rest run on mobile hosts
    processes_on_mss: int = 0
    seed: int = 42
    checkpoint_interval: float = 900.0
    checkpoint_size_bytes: int = 512 * 1024
    network: NetworkParams = field(default_factory=NetworkParams)
    trace_messages: bool = True
    trace_debug_capacity: Optional[int] = None
    timeseries_window: Optional[float] = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ConfigurationError("need at least one process")
        if self.n_mss < 1:
            raise ConfigurationError("need at least one MSS")
        if not 0 <= self.processes_on_mss <= self.n_processes:
            raise ConfigurationError(
                "processes_on_mss must be between 0 and n_processes"
            )
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint interval must be positive")
        if self.checkpoint_size_bytes <= 0:
            raise ConfigurationError("checkpoint size must be positive")
        if self.trace_debug_capacity is not None and self.trace_debug_capacity < 1:
            raise ConfigurationError(
                "trace_debug_capacity must be >= 1 (or None for unbounded)"
            )
        if self.timeseries_window is not None and self.timeseries_window <= 0:
            raise ConfigurationError(
                "timeseries_window must be positive (or None to disable)"
            )
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")

    @classmethod
    def from_params(cls, params: dict, seed: Optional[int] = None) -> "SystemConfig":
        """Build from a plain-data override dict (campaign run points).

        A nested ``"network"`` dict becomes :class:`NetworkParams`, so a
        fully JSON-serializable spec can cross a process boundary and be
        content-hashed, then rebuilt here inside a worker.
        """
        params = dict(params)
        network = params.get("network")
        if isinstance(network, dict):
            params["network"] = build_config(NetworkParams, network, "network")
        if seed is not None:
            params["seed"] = seed
        return build_config(cls, params, "system")


@dataclass(frozen=True)
class PointToPointWorkloadConfig:
    """Uniform point-to-point traffic (paper §5.1).

    ``mean_send_interval`` is the mean of the exponential inter-send time
    at each process; the destination of each message is uniform over all
    other processes.
    """

    mean_send_interval: float = 10.0

    def __post_init__(self) -> None:
        if self.mean_send_interval <= 0:
            raise ConfigurationError("mean send interval must be positive")

    @property
    def rate(self) -> float:
        """Messages per second per process."""
        return 1.0 / self.mean_send_interval


@dataclass(frozen=True)
class GroupWorkloadConfig:
    """Group communication (paper §5.1).

    Processes are partitioned into ``n_groups`` equal groups, each with a
    leader (the lowest pid in the group). Intragroup destinations are
    uniform over group members; only leaders send intergroup, to a
    uniformly random other leader, at ``intra_inter_ratio`` times lower
    rate than their intragroup traffic.
    """

    mean_send_interval: float = 10.0
    n_groups: int = 4
    intra_inter_ratio: float = 1000.0

    def __post_init__(self) -> None:
        if self.mean_send_interval <= 0:
            raise ConfigurationError("mean send interval must be positive")
        if self.n_groups < 1:
            raise ConfigurationError("need at least one group")
        if self.intra_inter_ratio < 1:
            raise ConfigurationError("intra:inter ratio must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """How long to run and what to collect.

    ``max_initiations`` counts *committed* checkpointing processes; the
    run stops once that many have committed (or ``time_limit`` elapses,
    whichever is first).

    ``serialize_initiations`` is §3.3's presentation assumption: at most
    one checkpointing is in progress, and an initiation falling due
    meanwhile waits for it to end. ``False`` lets initiations overlap,
    which §3.5 says the algorithm alone does not survive: recovery lines
    can then hold orphan messages.
    """

    max_initiations: int = 10
    time_limit: Optional[float] = None
    warmup_initiations: int = 1
    serialize_initiations: bool = True

    def __post_init__(self) -> None:
        if self.max_initiations < 1:
            raise ConfigurationError("need at least one initiation")
        if self.warmup_initiations < 0:
            raise ConfigurationError("warmup cannot be negative")
        if self.warmup_initiations >= self.max_initiations:
            raise ConfigurationError("warmup must leave at least one measured initiation")
