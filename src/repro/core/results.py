"""Run results and aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.metrics import InitiationStats
from repro.analysis.stats import Summary, summarize


@dataclass
class RunResult:
    """Everything measured in one experiment run.

    ``initiations`` excludes warmup initiations; aggregate properties are
    computed over the measured ones only.
    """

    protocol: str
    n_processes: int
    seed: int
    initiations: List[InitiationStats] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    total_blocked_time: float = 0.0
    sim_time: float = 0.0
    wall_events: int = 0
    #: full :meth:`repro.obs.registry.MetricsRegistry.snapshot` of the
    #: run — counters (same values as ``counters``), gauges, histograms.
    #: Empty for results recorded before the observability layer.
    metrics: Dict = field(default_factory=dict)
    #: windowed telemetry document from
    #: :meth:`repro.obs.timeseries.TimeseriesSampler.export`. Empty when
    #: sampling was disabled (``SystemConfig.timeseries_window`` unset)
    #: or for results recorded before the timeseries layer.
    timeseries: Dict = field(default_factory=dict)
    #: cross-shard traffic report from
    #: :meth:`repro.sim.shard.ShardedSimulator.shard_report`. Empty on
    #: sequential (``shards=1``) runs; omitted from :meth:`to_dict` when
    #: empty so sequential result documents are byte-identical to those
    #: written before sharding existed.
    shard_stats: Dict = field(default_factory=dict)

    @property
    def n_initiations(self) -> int:
        return len(self.initiations)

    def tentative_summary(self) -> Summary:
        """Tentative checkpoints per initiation (Fig. 5/6 upper curves)."""
        return summarize([s.tentative_count for s in self.initiations])

    def redundant_mutable_summary(self) -> Summary:
        """Redundant mutable checkpoints per initiation (lower curves)."""
        return summarize([s.redundant_mutables for s in self.initiations])

    def duration_summary(self) -> Summary:
        """Checkpointing time per initiation (initiation -> commit)."""
        return summarize([s.duration for s in self.initiations if s.duration is not None])

    @property
    def redundant_ratio(self) -> float:
        """Redundant mutables as a fraction of tentatives (paper: < 4 %)."""
        tentatives = sum(s.tentative_count for s in self.initiations)
        if tentatives == 0:
            return 0.0
        redundant = sum(s.redundant_mutables for s in self.initiations)
        return redundant / tentatives

    def to_dict(self) -> Dict:
        """A JSON-serializable representation.

        Lossless: ``RunResult.from_dict(r.to_dict()) == r`` and the dict
        survives a JSON round-trip unchanged. This is the wire/storage
        format of the campaign :class:`~repro.campaign.store.ResultStore`.
        """
        data = {
            "protocol": self.protocol,
            "n_processes": self.n_processes,
            "seed": self.seed,
            "initiations": [s.to_dict() for s in self.initiations],
            "counters": dict(self.counters),
            "total_blocked_time": self.total_blocked_time,
            "sim_time": self.sim_time,
            "wall_events": self.wall_events,
            "metrics": self.metrics,
            "timeseries": self.timeseries,
        }
        if self.shard_stats:
            data["shard_stats"] = self.shard_stats
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            protocol=data["protocol"],
            n_processes=data["n_processes"],
            seed=data["seed"],
            initiations=[
                InitiationStats.from_dict(s) for s in data["initiations"]
            ],
            counters=dict(data["counters"]),
            total_blocked_time=data["total_blocked_time"],
            sim_time=data["sim_time"],
            wall_events=data["wall_events"],
            metrics=data.get("metrics", {}),
            timeseries=data.get("timeseries", {}),
            shard_stats=data.get("shard_stats", {}),
        )

    def paper_row(self) -> Dict[str, float]:
        """The five quantities the paper plots, rounded for display.

        The one definition behind campaign rows, ``/results`` documents
        and the figure benches' printed rows.
        """
        return {
            "tentative_mean": round(self.tentative_summary().mean, 3),
            "redundant_mutable_mean": round(
                self.redundant_mutable_summary().mean, 4
            ),
            "redundant_ratio": round(self.redundant_ratio, 4),
            "duration_s": round(self.duration_summary().mean, 3),
            "initiations": self.n_initiations,
        }
