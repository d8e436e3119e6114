"""Offline verification of archived traces.

A trace exported with :mod:`repro.sim.export` is self-contained for the
position-based orphan scan: the recovery line is the last ``permanent``
record per process, and "recorded in a checkpoint" is decided by trace
position. This module takes the line from the records alone (the
index's ``captures.line``) and runs the scan — so any archived run can be re-verified years later,
without the simulation objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.consistency import Orphan, orphans_across
from repro.analysis.trace_index import TraceIndex, TraceSource
from repro.errors import InconsistentCheckpointError


@dataclass
class OfflineVerdict:
    """Result of verifying an archived trace."""

    processes: int
    messages: int
    commits: int
    line_ckpt_ids: Dict[int, int]
    orphans: List[Orphan] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.orphans

    def __str__(self) -> str:
        status = "consistent" if self.consistent else (
            f"INCONSISTENT ({len(self.orphans)} orphan(s))"
        )
        return (
            f"{self.processes} processes, {self.messages} messages, "
            f"{self.commits} commits: {status}"
        )


def verify_archived_trace(trace: TraceSource) -> OfflineVerdict:
    """Run the position-based orphan scan against a bare trace."""
    index = TraceIndex.of(trace)
    line_ids = index.captures.line
    if not line_ids:
        raise InconsistentCheckpointError("trace has no permanent checkpoints")
    return OfflineVerdict(
        processes=len(line_ids),
        messages=sum(m.send is not None for m in index.messages.by_id.values()),
        commits=len(index.commits()),
        line_ckpt_ids=line_ids,
        orphans=orphans_across(index, line_ids),
    )


def verify_trace_file(path: str) -> OfflineVerdict:
    """Load a JSON-lines trace file and verify it."""
    from repro.sim.export import read_trace

    return verify_archived_trace(read_trace(path))
