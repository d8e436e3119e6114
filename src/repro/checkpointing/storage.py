"""Checkpoint storage: stable storage at MSSs, local stores at MHs.

The paper's storage model (§1, §5.1): an MH's own disk is *not* stable —
stable storage lives at the MSSs, so a tentative checkpoint costs a
512 KB incremental transfer over the 2 Mbps wireless link (2 s), whereas
a mutable checkpoint is a 2.5 ms main-memory copy on the MH itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.errors import StorageError


class StableStorage:
    """Stable storage at one MSS.

    Holds tentative and permanent checkpoints per process and basic
    accounting of how many bytes were written (a proxy for the wireless
    transfer cost the paper wants minimized).
    """

    def __init__(self, name: str = "stable") -> None:
        self.name = name
        self._checkpoints: Dict[int, List[CheckpointRecord]] = {}
        self.bytes_written = 0
        self.writes = 0

    def store(self, record: CheckpointRecord) -> None:
        """Persist a checkpoint (it must already be tentative/permanent)."""
        if not record.is_stable and record.kind is not CheckpointKind.DISCONNECT:
            raise StorageError(
                f"cannot store {record.kind.value} checkpoint on stable storage"
            )
        self._checkpoints.setdefault(record.pid, []).append(record)
        self.bytes_written += record.size_bytes
        self.writes += 1

    def checkpoints_of(self, pid: int) -> List[CheckpointRecord]:
        """All stored checkpoints of ``pid``, oldest first."""
        return list(self._checkpoints.get(pid, ()))

    def latest(self, pid: int, kind: Optional[CheckpointKind] = None) -> Optional[CheckpointRecord]:
        """Most recent checkpoint of ``pid`` (optionally of one kind)."""
        for record in reversed(self._checkpoints.get(pid, [])):
            if kind is None or record.kind is kind:
                return record
        return None

    def discard(self, record: CheckpointRecord) -> None:
        """Remove a checkpoint (aborted tentative, superseded disconnect)."""
        try:
            self._checkpoints[record.pid].remove(record)
        except (KeyError, ValueError):
            raise StorageError(f"checkpoint {record.ckpt_id} not in {self.name}") from None

    def garbage_collect(self, pid: int) -> int:
        """Drop all but the newest permanent checkpoint of ``pid`` (older
        ones can never be part of the most recent recovery line).
        Returns the number removed.
        """
        records = self._checkpoints.get(pid, [])
        permanents = [r for r in records if r.kind is CheckpointKind.PERMANENT]
        to_drop = permanents[:-1]
        for record in to_drop:
            records.remove(record)
        return len(to_drop)

    def __len__(self) -> int:
        return sum(len(v) for v in self._checkpoints.values())


class LocalStore:
    """Volatile local storage on an MH for mutable checkpoints.

    The paper's key point: this storage is cheap (main memory) but not
    stable — its contents do not survive an MH failure, which is exactly
    why mutable checkpoints must be promoted to stable storage before
    they can participate in a recovery line. Usually one checkpoint is
    held at a time; overlapping initiations (Fig. 3) can briefly require
    more, so the store is keyed by checkpoint id.
    """

    def __init__(self, name: str = "local") -> None:
        self.name = name
        self._records: Dict[int, CheckpointRecord] = {}
        self.saves = 0
        self.removals = 0

    def save(self, record: CheckpointRecord) -> None:
        """Store a mutable checkpoint."""
        if record.kind is not CheckpointKind.MUTABLE:
            raise StorageError("local store only holds mutable checkpoints")
        self._records[record.ckpt_id] = record
        self.saves += 1

    def remove(self, record: CheckpointRecord) -> None:
        """Drop a held checkpoint (promoted to stable, or discarded)."""
        if self._records.pop(record.ckpt_id, None) is not None:
            self.removals += 1

    def wipe(self) -> None:
        """Simulate MH failure: volatile contents are lost."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)
