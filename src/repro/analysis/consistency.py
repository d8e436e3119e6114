"""Protocol-independent consistency checking of global checkpoints.

Two independent witnesses, sharing no code with the protocols:

1. **Orphan scan** (:func:`find_orphans`): replays the trace log. A
   global checkpoint is inconsistent iff some message's *receive* is
   recorded in the destination's checkpoint while its *send* is not
   recorded in the source's checkpoint (§2.3's orphan message). "Recorded
   in" is decided by trace-log position: the trace is a single total
   order consistent with causality (the simulator's event order), and a
   checkpoint record appears in the trace exactly when the state was
   captured. Positions and send/receive pairs come from
   :class:`~repro.analysis.trace_index.TraceIndex`.

2. **Channel-count test** (:func:`check_channel_counts`): uses the
   per-peer ``sent`` / ``received`` counts embedded in the checkpoint
   records. Channels are FIFO, so ``ckpt_j`` recording more receives
   from i than ``ckpt_i`` records sends to j *is* an orphan on i -> j
   (:func:`orphan_holder`). It needs no message records, so it is
   complete on a truncated log too.

Both are applied to *recovery lines*: for each process the latest stable
checkpoint with ``time_taken <=`` some cut criterion, or simply the
latest permanent checkpoints after a committed initiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis.trace_index import TraceIndex, TraceSource
from repro.checkpointing.storage import StableStorage
from repro.checkpointing.types import ChannelCounts, CheckpointKind, CheckpointRecord
from repro.errors import InconsistentCheckpointError


@dataclass(frozen=True)
class Orphan:
    """A message violating consistency for a given global checkpoint."""

    msg_id: int
    src: int
    dst: int
    send_position: Optional[int]
    recv_position: int

    def __str__(self) -> str:
        return (
            f"orphan message {self.msg_id}: {self.src} -> {self.dst} "
            f"(recv recorded at trace position {self.recv_position}, "
            f"send at {self.send_position})"
        )


def orphans_across(index: TraceIndex, ckpt_ids: Dict[int, int]) -> List[Orphan]:
    """The orphan scan for a line given as pid -> ``ckpt_id``.

    On a truncated log a receive whose send record was evicted is left
    unjudged; on a complete log it is an orphan.
    """
    cut = index.cut(ckpt_ids)
    for pid, ckpt_id in ckpt_ids.items():
        if pid not in cut:
            # Initial checkpoints are traced at t=0; they must be there.
            raise InconsistentCheckpointError(
                f"checkpoint {ckpt_id} of p{pid} not found in trace"
            )
    orphans: List[Orphan] = []
    for msg_id, src, dst, send, recv in index.messages.received:
        if dst not in cut or recv >= cut[dst] or src not in cut:
            continue  # receive not recorded in dst's checkpoint
        if send is None and index.evicted:
            continue  # the send may well be in src's checkpoint
        if send is None or send >= cut[src]:
            orphans.append(Orphan(msg_id, src, dst, send, recv))
    return orphans


def find_orphans(
    trace: TraceSource,
    line: Dict[int, CheckpointRecord],
) -> List[Orphan]:
    """All orphan messages of the global checkpoint ``line``.

    ``line`` maps pid -> the checkpoint record chosen for that process.
    Requires the run to have ``trace_messages`` enabled.
    """
    return orphans_across(
        TraceIndex.of(trace),
        {pid: record.ckpt_id for pid, record in line.items()},
    )


def orphan_holder(line: Dict[int, CheckpointRecord]) -> Optional[int]:
    """The first pid whose checkpoint records more receives from some
    peer i than ``line[i]`` records sends to it, or ``None``.

    Every record must carry counts. Why this is exact: channels are
    FIFO, so the surplus receives are messages whose send ``line[i]``
    does not record; and any causal path from after ``line[i]`` to
    before ``line[j]`` has a first hop received inside its receiver's
    checkpoint, whose send is outside its sender's: an orphan, found here.
    """
    for pid, record in line.items():
        for peer, count in record.received.items():
            other = line.get(peer)
            if other is not None and count > other.sent.get(pid, 0):
                return pid
    return None


def check_channel_counts(line: Dict[int, CheckpointRecord]) -> Optional[bool]:
    """Whether the channel counts of ``line`` show no orphan; ``None``
    (unjudged) when a record carries no counts."""
    if any(record.sent is None for record in line.values()):
        return None
    return orphan_holder(line) is None


def channel_received(line: Dict[int, CheckpointRecord], pid: int) -> ChannelCounts:
    """``pid``'s received counts after a rollback to ``line``.

    A rollback empties the channels: what is in transit across the line
    is dropped by the incarnation check, so ``pid`` has received from
    each peer exactly what the peer's checkpoint records as sent to it.
    Its own record's ``received`` would leave that in-transit gap open
    for good and hide later orphans of that size. ``None`` when a record
    carries no counts.
    """
    received: Dict[int, int] = {}
    for peer, record in line.items():
        if record.sent is None:
            return None
        count = record.sent.get(pid)
        if count:
            received[peer] = count
    return received


def latest_permanent_line(
    storages: Iterable[StableStorage], pids: Iterable[int]
) -> Dict[int, CheckpointRecord]:
    """The current recovery line: newest permanent checkpoint per process.

    With mobility a process's checkpoints may be spread across several
    MSSs, so all storages are consulted.
    """
    line: Dict[int, CheckpointRecord] = {}
    storage_list = list(storages)
    for pid in pids:
        best: Optional[CheckpointRecord] = None
        for storage in storage_list:
            candidate = storage.latest(pid, CheckpointKind.PERMANENT)
            if candidate is not None and (
                best is None or candidate.ckpt_id > best.ckpt_id
            ):
                best = candidate
        if best is None:
            raise InconsistentCheckpointError(f"no permanent checkpoint for p{pid}")
        line[pid] = best
    return line


def assert_line_consistent(
    trace: TraceSource, line: Dict[int, CheckpointRecord]
) -> None:
    """Raise :class:`InconsistentCheckpointError` unless ``line`` passes
    the orphan scan and, where its records carry counts, the
    channel-count test."""
    orphans = find_orphans(trace, line)
    if orphans:
        raise InconsistentCheckpointError(
            "orphan messages in recovery line: "
            + "; ".join(str(o) for o in orphans[:5])
        )
    if check_channel_counts(line) is False:
        raise InconsistentCheckpointError(
            f"channel-count test failed for recovery line: p{orphan_holder(line)} "
            "recorded receives its peers did not record as sent"
        )
