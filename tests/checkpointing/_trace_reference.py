"""The trace-reading recovery answers the channel counts replaced.

Before checkpoints carried per-peer counts, the runtime answered both
recovery questions from the DEBUG trace:
:meth:`TraceMessageLog.lost_messages` / :meth:`TraceMessageLog.prune`
are ``SenderMessageLog``'s bodies from then (keyed by ``msg_id``), and
:func:`count_lost_messages` counts the deliveries a rollback undoes,
which ``RecoveryRound.lost_messages`` now reads from the counts. Both
pair sends with receives through
:class:`~repro.analysis.trace_index.TraceIndex` and read the line at its
capture positions. ``test_lost_message_equivalence.py`` holds the count
answers to them; like ``tests/analysis/_dense_reference.py`` this is an
oracle, not production code.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.message_log import LoggedMessage
from repro.checkpointing.types import CheckpointRecord


class TraceMessageLog:
    """Logs every application send by ``msg_id``; judges by the trace."""

    def __init__(self, system) -> None:
        self.system = system
        self._log: Dict[int, LoggedMessage] = {}
        system.add_send_hook(self._on_send)

    def _on_send(self, process, message) -> None:
        self._log[message.msg_id] = LoggedMessage(
            msg_id=message.msg_id,
            src=process.pid,
            dst=message.dst_pid,
            payload=message.payload,
            seq=process.sent[message.dst_pid],
        )

    def __len__(self) -> int:
        return len(self._log)

    def lost_messages(
        self, line: Dict[int, CheckpointRecord]
    ) -> List[LoggedMessage]:
        """Messages in transit across ``line``: send recorded in the
        sender's checkpoint, receive not recorded in the receiver's."""
        index = TraceIndex(self.system.sim.trace)
        cut = index.cut({pid: rec.ckpt_id for pid, rec in line.items()})
        traced = index.messages.by_id
        lost: List[LoggedMessage] = []
        for msg_id, entry in self._log.items():
            message = traced.get(msg_id)
            if (
                message is None
                or message.send is None
                or entry.src not in cut
                or entry.dst not in cut
            ):
                continue
            if message.send >= cut[entry.src]:
                continue  # send not in the line: rolled back, not lost
            if message.recv is not None and message.recv < cut[entry.dst]:
                continue  # receive already in the line
            lost.append(entry)
        lost.sort(key=lambda e: e.msg_id)
        return lost

    def prune(self, line: Dict[int, CheckpointRecord]) -> int:
        """Drop entries whose send predates the sender's line checkpoint
        and whose receive is inside the receiver's; returns count."""
        index = TraceIndex(self.system.sim.trace)
        cut = index.cut({pid: rec.ckpt_id for pid, rec in line.items()})
        traced = index.messages.by_id
        droppable = [
            msg_id
            for msg_id, entry in self._log.items()
            if entry.dst in cut
            and msg_id in traced
            and traced[msg_id].recv is not None
            and traced[msg_id].recv < cut[entry.dst]
        ]
        for msg_id in droppable:
            del self._log[msg_id]
        return len(droppable)


def count_lost_messages(index: TraceIndex, line: Dict[int, CheckpointRecord]) -> int:
    """Deliveries after the recovery line, undone by the rollback."""
    cut = index.cut({pid: rec.ckpt_id for pid, rec in line.items()})
    return sum(
        1
        for message in index.messages.received
        if message.dst in cut and message.recv > cut[message.dst]
    )
