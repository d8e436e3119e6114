"""Sender-based message logging for lost-message replay.

Coordinated checkpointing guarantees no *orphan* messages, but a
rollback still loses messages that were in transit across the recovery
line — sent before a sender's checkpoint, received (or deliverable) only
after the receiver's. The paper's §6 notes that Koo-Toueg "do not
consider lost messages" while Deng-Park handle both; this module is the
standard remedy: every process logs the computation messages it sends,
and after a rollback the logged payloads of lost messages are replayed
to their destinations.

The log is volatile (in the sender's memory) and pruned at each
permanent checkpoint boundary: once the send is recorded in the sender's
permanent checkpoint *and* the receive in the receiver's, the entry can
never be needed again. For simplicity pruning here keeps everything
since the sender's previous permanent checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List

from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.types import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


@dataclass(frozen=True)
class LoggedMessage:
    """One sender-logged computation message."""

    msg_id: int
    src: int
    dst: int
    payload: Any
    send_time: float


class SenderMessageLog:
    """Logs every application send; identifies and replays lost messages."""

    def __init__(self, system: "MobileSystem") -> None:
        self.system = system
        self._log: Dict[int, LoggedMessage] = {}
        self.replayed: List[LoggedMessage] = []
        system.add_send_hook(self._on_send)

    def _on_send(self, process, message) -> None:
        self._log[message.msg_id] = LoggedMessage(
            msg_id=message.msg_id,
            src=process.pid,
            dst=message.dst_pid,
            payload=message.payload,
            send_time=self.system.sim.now,
        )

    def __len__(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------
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

    def replay(self, line: Dict[int, CheckpointRecord]) -> List[LoggedMessage]:
        """Redeliver every lost message's payload to its destination.

        Replay goes through the application-delivery hook (the payload
        reaches the app exactly as the original would have) and is
        traced as ``replayed``.
        """
        lost = self.lost_messages(line)
        for entry in lost:
            process = self.system.processes[entry.dst]
            process.app_state["messages_received"] += 1
            process.app_state["steps"] = process.app_state.get("steps", 0) + 1
            self.system.sim.trace.record(
                self.system.sim.now,
                "replayed",
                msg_id=entry.msg_id,
                src=entry.src,
                dst=entry.dst,
            )
            self.replayed.append(entry)
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
