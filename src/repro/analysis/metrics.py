"""Per-initiation metric extraction from the trace log.

The protocols emit structured trace records (see
:mod:`repro.checkpointing.protocol`); this module turns the waves of
:class:`~repro.analysis.trace_index.TraceIndex` into per-initiation
statistics — the quantities plotted in the paper's
Figs. 5 and 6 and tabulated in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.trace_index import TraceIndex, TraceSource
from repro.checkpointing.types import Trigger


@dataclass
class InitiationStats:
    """Counters for one checkpointing initiation.

    ``tentative_count`` includes the initiator's own checkpoint and any
    mutable checkpoints promoted to tentative. ``redundant_mutables`` are
    mutable checkpoints discarded without promotion — the paper's
    headline metric ("redundant" in §5).
    """

    trigger: Trigger
    initiation_time: float = 0.0
    commit_time: Optional[float] = None
    abort_time: Optional[float] = None
    tentative_count: int = 0
    mutable_count: int = 0
    promoted_mutables: int = 0
    redundant_mutables: int = 0
    permanent_count: int = 0
    participants: List[int] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.commit_time is not None

    @property
    def duration(self) -> Optional[float]:
        """Checkpointing time: initiation to commit (paper's T_ch span)."""
        end = self.commit_time if self.commit_time is not None else self.abort_time
        if end is None:
            return None
        return end - self.initiation_time

    def to_dict(self) -> Dict:
        """A JSON-serializable representation (lossless; see ``from_dict``)."""
        return {
            "trigger": list(self.trigger),
            "initiation_time": self.initiation_time,
            "commit_time": self.commit_time,
            "abort_time": self.abort_time,
            "tentative_count": self.tentative_count,
            "mutable_count": self.mutable_count,
            "promoted_mutables": self.promoted_mutables,
            "redundant_mutables": self.redundant_mutables,
            "permanent_count": self.permanent_count,
            "participants": list(self.participants),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "InitiationStats":
        """Inverse of :meth:`to_dict`."""
        fields_ = dict(data)
        fields_["trigger"] = Trigger(*fields_["trigger"])
        return cls(**fields_)


def per_initiation_stats(trace: TraceSource) -> Dict[Trigger, InitiationStats]:
    """One :class:`InitiationStats` per wave of the trace."""
    return {
        trigger: InitiationStats(
            trigger=trigger,
            initiation_time=wave.start_time,
            commit_time=wave.last_time("commit"),
            abort_time=wave.last_time("abort"),
            tentative_count=len(wave.tentative_records),
            mutable_count=len(wave.mutables),
            promoted_mutables=len(wave.promoted),
            redundant_mutables=len(wave.discarded_mutables),
            permanent_count=len(wave.permanents),
            participants=[record["pid"] for _, record in wave.tentative_records],
        )
        for trigger, wave in TraceIndex.of(trace).waves.by_trigger.items()
    }


def committed_stats(trace: TraceSource) -> List[InitiationStats]:
    """Stats for committed initiations, in commit order."""
    stats = [s for s in per_initiation_stats(trace).values() if s.committed]
    stats.sort(key=lambda s: s.commit_time)
    return stats
