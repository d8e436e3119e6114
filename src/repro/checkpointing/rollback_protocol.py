"""Distributed rollback: recovery as a message protocol.

:class:`~repro.checkpointing.recovery.RecoveryManager` restores state
omnisciently — fine for analysis, but a deployed system coordinates
recovery with messages (the paper defers to [20], [24], [28]). This
module implements the standard coordinated-rollback protocol those
papers assume:

1. the recovery initiator (typically a restarted process's MSS)
   broadcasts ``rollback_request`` carrying a new *incarnation number*;
2. every process suspends its computation, restores its newest
   permanent checkpoint (which, under coordinated checkpointing, *is*
   the recovery line — no search needed), discards buffered activity,
   adopts the incarnation, and acknowledges. Its channel counts come
   back as if every channel were empty: sends from its own checkpoint,
   receives from what the line's other checkpoints record as sent to
   it (:func:`~repro.analysis.consistency.channel_received`);
3. when all acknowledgements are in, the initiator broadcasts
   ``resume``; computation restarts.

Messages from the rolled-back incarnation that are still in flight when
computation resumes are discarded by the incarnation check in the
process runtime — the classic ghost-message defence.

A rollback must not race an active checkpointing coordination: the
caller aborts it first (see :meth:`DistributedRecovery.recover`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.analysis.consistency import channel_received, latest_permanent_line
from repro.errors import ProtocolError
from repro.net.message import SystemMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


@dataclass
class RecoveryRound:
    """Bookkeeping for one in-flight recovery coordination."""

    incarnation: int
    initiator: int
    started_at: float
    acked: Set[int] = field(default_factory=set)
    resumed_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.resumed_at is not None

    @property
    def duration(self) -> Optional[float]:
        if self.resumed_at is None:
            return None
        return self.resumed_at - self.started_at


class DistributedRecovery:
    """Coordinated rollback over protocol messages."""

    def __init__(self, system: "MobileSystem") -> None:
        self.system = system
        self.rounds: List[RecoveryRound] = []
        self._active: Optional[RecoveryRound] = None
        for process in system.processes.values():
            # partials (not closures) so the handler table — which lives
            # for the run inside each process — survives snapshot pickling
            process.register_system_handler(
                "rollback_request", partial(self._on_rollback_request, process)
            )
            process.register_system_handler(
                "rollback_ack", self._on_ack
            )
            process.register_system_handler(
                "resume", partial(self._on_resume, process)
            )

    @property
    def active(self) -> bool:
        """Whether a recovery round is currently in progress."""
        return self._active is not None

    # ------------------------------------------------------------------
    def recover(self, initiator_pid: int) -> RecoveryRound:
        """Start a coordinated rollback from ``initiator_pid``.

        An active checkpointing coordination is aborted first (§3.6's
        rule: a failure during checkpointing aborts it; recovery then
        proceeds from the last *committed* line).
        """
        if self._active is not None:
            raise ProtocolError("a recovery round is already in progress")
        for process in self.system.protocol.processes.values():
            if getattr(process, "initiating", None) is not None and hasattr(
                process, "abort_initiation"
            ):
                process.abort_initiation()
        incarnation = max(p.incarnation for p in self.system.processes.values()) + 1
        round_ = RecoveryRound(
            incarnation=incarnation,
            initiator=initiator_pid,
            started_at=self.system.sim.now,
        )
        self._active = round_
        self.rounds.append(round_)
        self.system.sim.trace.record(
            self.system.sim.now,
            "recovery_started",
            initiator=initiator_pid,
            incarnation=incarnation,
        )
        # The initiator rolls itself back immediately and "broadcasts".
        self._roll_back_locally(self.system.processes[initiator_pid], incarnation)
        round_.acked.add(initiator_pid)
        for pid in self.system.processes:
            if pid != initiator_pid:
                self._send(initiator_pid, pid, "rollback_request",
                           {"incarnation": incarnation, "initiator": initiator_pid})
        self._maybe_resume()
        return round_

    # ------------------------------------------------------------------
    def _send(self, src: int, dst: int, subkind: str, fields: Dict) -> None:
        message = SystemMessage(
            src_pid=src,
            dst_pid=dst,
            subkind=subkind,
            fields=fields,
            msg_id=next(self.system.message_ids),
        )
        self.system.metrics.counter("system_messages").inc()
        self.system.metrics.counter(f"system_messages_{subkind}").inc()
        self.system.network.send_from_process(src, message)

    def _roll_back_locally(self, process, incarnation: int) -> None:
        line = latest_permanent_line(
            self.system.all_stable_storages(), self.system.processes
        )
        record = line[process.pid]
        process.block()
        process.discard_deferred()
        process.restore_state(
            record.state, record.sent, channel_received(line, process.pid)
        )
        process.local_store.wipe()
        process.incarnation = incarnation
        self.system.sim.trace.record(
            self.system.sim.now,
            "rolled_back",
            pid=process.pid,
            ckpt_id=record.ckpt_id,
            incarnation=incarnation,
        )

    def _on_rollback_request(self, process, message: SystemMessage) -> None:
        fields = message.fields
        if fields["incarnation"] <= process.incarnation:
            return  # duplicate / stale request
        self._roll_back_locally(process, fields["incarnation"])
        self._send(
            process.pid,
            fields["initiator"],
            "rollback_ack",
            {"incarnation": fields["incarnation"], "from_pid": process.pid},
        )

    def _on_ack(self, message: SystemMessage) -> None:
        round_ = self._active
        if round_ is None or message.fields["incarnation"] != round_.incarnation:
            return
        round_.acked.add(message.fields["from_pid"])
        self._maybe_resume()

    def _maybe_resume(self) -> None:
        round_ = self._active
        if round_ is None or len(round_.acked) < len(self.system.processes):
            return
        round_.resumed_at = self.system.sim.now
        self._active = None
        for pid in self.system.processes:
            if pid != round_.initiator:
                self._send(round_.initiator, pid, "resume",
                           {"incarnation": round_.incarnation})
        self.system.processes[round_.initiator].unblock()
        self.system.sim.trace.record(
            self.system.sim.now,
            "recovery_complete",
            incarnation=round_.incarnation,
            duration=round_.duration,
        )

    def _on_resume(self, process, message: SystemMessage) -> None:
        if message.fields["incarnation"] == process.incarnation:
            process.unblock()
