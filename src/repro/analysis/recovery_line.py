"""Maximal consistent recovery-line search and the domino effect (§6).

Uncoordinated checkpointing leaves each process with a *history* of
checkpoints and no guarantee that the newest ones fit together; recovery
must search backwards for a consistent combination, possibly cascading —
the domino effect. Coordinated checkpointing exists to avoid exactly
this.

:func:`maximal_consistent_line` implements the classic fixed-point
search over the checkpoints' channel counts: start from every process's
newest checkpoint; while some checkpoint records more receives from a
process i than i's chosen checkpoint records sends to it (an orphan,
:func:`~repro.analysis.consistency.orphan_holder`), roll the receiver
back; repeat. The result is the unique maximal consistent line (the
lattice of consistent cuts guarantees the greedy fixed point is
maximal), and the number of checkpoints skipped per process measures
the domino depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.analysis.consistency import orphan_holder
from repro.checkpointing.storage import StableStorage
from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.errors import InconsistentCheckpointError


@dataclass
class RecoveryLineSearch:
    """Result of the maximal-consistent-line search."""

    line: Dict[int, CheckpointRecord]
    #: checkpoints skipped per process (0 = its newest one was usable)
    rollback_depth: Dict[int, int]
    iterations: int

    @property
    def total_rollback_depth(self) -> int:
        return sum(self.rollback_depth.values())

    @property
    def domino(self) -> bool:
        """Whether any process had to discard more than one checkpoint."""
        return any(depth > 1 for depth in self.rollback_depth.values())


def checkpoint_histories(
    storages: Iterable[StableStorage], pids: Iterable[int]
) -> Dict[int, List[CheckpointRecord]]:
    """Per process: permanent checkpoints, oldest first, across storages."""
    histories: Dict[int, List[CheckpointRecord]] = {}
    storage_list = list(storages)
    for pid in pids:
        records: List[CheckpointRecord] = []
        for storage in storage_list:
            records.extend(
                r
                for r in storage.checkpoints_of(pid)
                if r.kind is CheckpointKind.PERMANENT
            )
        records.sort(key=lambda r: r.ckpt_id)
        if not records:
            raise InconsistentCheckpointError(f"no permanent checkpoint for p{pid}")
        histories[pid] = records
    return histories


def maximal_consistent_line(
    histories: Dict[int, List[CheckpointRecord]]
) -> RecoveryLineSearch:
    """Greedy fixed-point search for the newest consistent line.

    Requires every checkpoint record to carry channel counts.
    Terminates because indices only decrease and the all-initial line
    (nothing sent, nothing received) is always consistent.
    """
    index = {pid: len(records) - 1 for pid, records in histories.items()}
    iterations = 0
    while True:
        iterations += 1
        current = {pid: histories[pid][i] for pid, i in index.items()}
        violator = orphan_holder(current)
        if violator is None:
            depth = {
                pid: len(histories[pid]) - 1 - i for pid, i in index.items()
            }
            return RecoveryLineSearch(
                line=current, rollback_depth=depth, iterations=iterations
            )
        if index[violator] == 0:
            raise InconsistentCheckpointError(
                f"p{violator} exhausted its history without reaching consistency"
            )
        index[violator] -= 1
