"""Sender-based message logging for lost-message replay.

Coordinated checkpointing guarantees no *orphan* messages, but a
rollback still loses messages that were in transit across the recovery
line — sent before a sender's checkpoint, received (or deliverable) only
after the receiver's. The paper's §6 notes that Koo-Toueg "do not
consider lost messages" while Deng-Park handle both; this module is the
standard remedy: every process logs the computation messages it sends,
and after a rollback the logged payloads of lost messages are replayed
to their destinations.

The log is volatile (in the sender's memory) and keyed by channel and
sequence number, the sender's ``sent[dst]`` once the message is counted.
Channels are FIFO, so a line records the first ``line[src].sent[dst]``
sends on a channel and the first ``line[dst].received[src]`` receives;
those in between are in transit across it. :meth:`prune` drops entries
whose receive the receiver's checkpoint records: they can never be
needed again. A rollback restores ``sent[dst]``, so a re-send replaces
the entry it undid. No trace is read, so the log works at every trace
level; a system or line without counts is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.checkpointing.types import CheckpointRecord
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


@dataclass(frozen=True)
class LoggedMessage:
    """One sender-logged computation message."""

    msg_id: int
    src: int
    dst: int
    payload: Any
    #: its sequence number on the channel src -> dst (the first is 1)
    seq: int


class SenderMessageLog:
    """Logs every application send; identifies and replays lost messages."""

    def __init__(self, system: "MobileSystem") -> None:
        _require_counts(system.processes.values())
        self.system = system
        self._log: Dict[Tuple[int, int, int], LoggedMessage] = {}
        self.replayed: List[LoggedMessage] = []
        system.add_send_hook(self._on_send)

    def _on_send(self, process, message) -> None:
        # the send has been counted: sent[dst] is this message's number
        dst = message.dst_pid
        seq = process.sent[dst]
        self._log[process.pid, dst, seq] = LoggedMessage(
            message.msg_id, process.pid, dst, message.payload, seq
        )

    def __len__(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------
    def lost_messages(
        self, line: Dict[int, CheckpointRecord]
    ) -> List[LoggedMessage]:
        """Messages in transit across ``line``: send recorded in the
        sender's checkpoint, receive not recorded in the receiver's."""
        _require_counts(line.values())
        lost = [
            entry
            for entry in self._log.values()
            if entry.src in line
            and entry.dst in line
            and line[entry.dst].received.get(entry.src, 0)
            < entry.seq
            <= line[entry.src].sent.get(entry.dst, 0)
        ]
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
            self.system.workload_deliver(process, ComputationMessage(
                entry.src, entry.dst, msg_id=entry.msg_id, payload=entry.payload
            ))
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
        """Drop entries whose receive the receiver's line checkpoint
        records; returns count."""
        _require_counts(line.values())
        droppable = [
            key
            for key, entry in self._log.items()
            if entry.dst in line
            and entry.seq <= line[entry.dst].received.get(entry.src, 0)
        ]
        for key in droppable:
            del self._log[key]
        return len(droppable)


def _require_counts(holders) -> None:
    """Every process or checkpoint in ``holders`` must keep counts."""
    if any(holder.sent is None for holder in holders):
        raise ProtocolError(
            "sender-based logging needs channel counts; an image written "
            "before processes counted restores none"
        )
