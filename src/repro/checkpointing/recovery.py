"""Rollback recovery from committed checkpoints.

Coordinated checkpointing's payoff: after a failure, every process
rolls back to its most recent *permanent* checkpoint and the set of
those checkpoints — the recovery line — is guaranteed consistent, so
at most one checkpoint per process needs to be kept (§6's storage
argument).

:class:`RecoveryManager` implements the post-failure procedure against
the simulated system: assemble the recovery line from the MSSs' stable
storages, verify it (belt-and-braces, using the independent checkers),
restore every process's application state and channel counts, and report
how much computation was lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.consistency import (
    assert_line_consistent,
    channel_received,
    latest_permanent_line,
)
from repro.checkpointing.types import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


@dataclass
class RollbackReport:
    """What a rollback did.

    ``lost_messages`` counts application messages whose delivery is no
    longer reflected in any process state (received after the recovery
    line) — the computation to be re-executed after restart. ``None``
    (unjudged) when a process or a record of the line keeps no counts.
    """

    line: Dict[int, CheckpointRecord]
    rolled_back_pids: List[int]
    lost_messages: Optional[int]
    recovery_time: float

    @property
    def line_times(self) -> Dict[int, float]:
        """When each restored checkpoint was taken."""
        return {pid: rec.time_taken for pid, rec in self.line.items()}


class RecoveryManager:
    """Performs rollback of a :class:`~repro.core.system.MobileSystem`."""

    def __init__(self, system: "MobileSystem") -> None:
        self.system = system

    def recovery_line(self) -> Dict[int, CheckpointRecord]:
        """The newest permanent checkpoint of every process."""
        return latest_permanent_line(
            self.system.all_stable_storages(), self.system.processes
        )

    def rollback(self, verify: bool = True) -> RollbackReport:
        """Roll every process back to the current recovery line.

        Application state and sent counts are restored from the
        checkpoints. In-flight computation messages are considered lost
        (the recovering system re-executes from the line; channel state
        is empty after a coordinated rollback), so received counts are
        what the line records as sent (:func:`channel_received`).
        """
        line = self.recovery_line()
        if verify:
            assert_line_consistent(self.system.sim.trace, line)
        processes = self.system.processes
        # Deliveries after the line, undone below: what the processes have
        # received less what their checkpoints recorded.
        received = [(processes[pid].received, r.received) for pid, r in line.items()]
        lost = None
        if all(now is not None and then is not None for now, then in received):
            lost = sum(sum(now.values()) - sum(then.values()) for now, then in received)
        for pid, record in line.items():
            processes[pid].restore_state(
                record.state, record.sent, channel_received(line, pid)
            )
        report = RollbackReport(
            line=line,
            rolled_back_pids=sorted(line),
            lost_messages=lost,
            recovery_time=self.system.sim.now,
        )
        self.system.sim.trace.record(
            self.system.sim.now,
            "rollback",
            pids=tuple(report.rolled_back_pids),
            lost_messages=lost,
        )
        return report
