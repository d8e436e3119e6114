"""The Elnozahy-Johnson-Zwaenepoel nonblocking baseline [13].

A centralized, all-process algorithm: a distinguished coordinator
periodically broadcasts a checkpoint request carrying a global
checkpoint sequence number (csn). Every process takes a checkpoint on
receiving the request — or earlier, if a computation message stamped
with the new csn arrives first (the csn piggyback is what makes the
algorithm nonblocking and orphan-free). When the coordinator has
collected acknowledgements from all processes it broadcasts commit.

Properties reproduced for the Table 1 comparison:

* all N processes take a stable checkpoint per initiation;
* message cost 2 * C_broad + N * C_air (request broadcast, N replies,
  commit broadcast);
* blocking time 0;
* centralized: only the coordinator may initiate.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from functools import partial

from repro.checkpointing.protocol import (
    CheckpointProtocol,
    ProcessEnv,
    ProtocolProcess,
    noop,
)
from repro.checkpointing.types import CheckpointKind, CheckpointRecord, Trigger
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage, SystemMessage


class ElnozahyProcess(ProtocolProcess):
    """Per-process state machine of the EJZ algorithm."""

    def __init__(self, env: ProcessEnv, protocol: "ElnozahyProtocol") -> None:
        super().__init__(env)
        self.protocol = protocol
        #: the global checkpoint sequence number this process has reached
        self.csn = 0
        self._pending: Dict[int, CheckpointRecord] = {}
        # coordinator-side state
        self._acks: Set[int] = set()
        self._active: Optional[Trigger] = None
        self._own_save_done = False

    @property
    def is_coordinator(self) -> bool:
        return self.pid == self.protocol.coordinator

    # ------------------------------------------------------------------
    def on_send_computation(self, message: ComputationMessage) -> None:
        message.pb = (self.csn, None)

    def on_receive_computation(self, message, deliver: Callable[[], None]) -> None:
        pb = message.pb  # message.protocol_tags(), read in place
        recv_csn = 0 if pb is None else pb[0]
        if recv_csn > self.csn:
            # The sender checkpointed before sending: checkpoint before
            # processing, so the message cannot become an orphan.
            self._advance_to(recv_csn, notify=True)
        deliver()

    # ------------------------------------------------------------------
    def initiate(self) -> bool:
        if not self.is_coordinator or self._active is not None:
            return False
        trigger = Trigger(self.pid, self.csn + 1)
        self._active = trigger
        self._acks = set()
        self._own_save_done = False
        self.env.trace("initiation", pid=self.pid, trigger=trigger)
        self._advance_to(self.csn + 1, notify=False)
        self.env.broadcast_system("request", {"csn": self.csn, "trigger": trigger})
        return True

    def _advance_to(self, csn: int, notify: bool) -> None:
        """Take the checkpoint for sequence number ``csn`` if not taken."""
        if csn <= self.csn:
            return
        if csn != self.csn + 1:
            raise ProtocolError(
                f"p{self.pid} asked to jump csn {self.csn} -> {csn}"
            )
        self.csn = csn
        trigger = Trigger(self.protocol.coordinator, csn)
        record = self.make_checkpoint(csn, CheckpointKind.TENTATIVE, trigger)
        self._pending[csn] = record
        self.env.trace(
            "tentative", pid=self.pid, trigger=trigger, csn=csn, ckpt_id=record.ckpt_id
        )
        if self.pid == self.protocol.coordinator:
            self.env.transfer_to_stable(record, self._on_coordinator_saved)
        elif notify:
            self.env.transfer_to_stable(record, partial(self._reply_saved, csn))
        else:
            self.env.transfer_to_stable(record, noop)

    def _reply_saved(self, csn: int) -> None:
        """Tell the coordinator our csn-th checkpoint reached stable store."""
        self.env.send_system(
            self.protocol.coordinator, "reply", {"csn": csn, "from_pid": self.pid}
        )

    def _on_coordinator_saved(self) -> None:
        self._own_save_done = True
        self._maybe_commit()

    # ------------------------------------------------------------------
    def _on_request(self, message: SystemMessage) -> None:
        csn = message.fields["csn"]
        if csn > self.csn:
            self._advance_to(csn, notify=True)
        else:
            # Already checkpointed (a stamped computation message got
            # here first); the coordinator still needs our ack.
            self.env.send_system(
                self.protocol.coordinator, "reply", {"csn": csn, "from_pid": self.pid}
            )

    def _on_reply(self, message: SystemMessage) -> None:
        if self._active is None or message.fields["csn"] != self._active.inum:
            return
        self._acks.add(message.fields["from_pid"])
        self._maybe_commit()

    def _maybe_commit(self) -> None:
        if self._active is None or not self._own_save_done:
            return
        if len(self._acks) < self.n - 1:
            return
        trigger = self._active
        self._active = None
        self.env.trace("commit", trigger=trigger)
        self.env.broadcast_system("commit", {"csn": trigger.inum, "trigger": trigger})
        self._apply_commit(trigger.inum, trigger)
        self.protocol.notify_commit(trigger)

    def _on_commit(self, message: SystemMessage) -> None:
        self._apply_commit(message.fields["csn"], message.fields["trigger"])

    def _apply_commit(self, csn: int, trigger: Trigger) -> None:
        record = self._pending.pop(csn, None)
        if record is None:
            return
        self.env.make_permanent(record)
        self.env.trace("permanent", pid=self.pid, trigger=trigger, ckpt_id=record.ckpt_id)

    # ------------------------------------------------------------------
    #: subkind -> handler, built once per class rather than per message
    _HANDLERS = {"request": _on_request, "reply": _on_reply, "commit": _on_commit}

    def on_system_message(self, message: SystemMessage) -> None:
        handler = self._HANDLERS.get(message.subkind)
        if handler is None:
            raise ProtocolError(f"unknown subkind {message.subkind!r}")
        handler(self, message)


class ElnozahyProtocol(CheckpointProtocol):
    """System-wide factory for the EJZ baseline.

    ``coordinator`` is the only process allowed to initiate (pid 0 by
    default) — the centralization the paper's Table 1 notes as a
    drawback.
    """

    name = "elnozahy"
    blocking = False
    distributed = False

    def __init__(self, coordinator: int = 0) -> None:
        super().__init__()
        self.coordinator = coordinator

    def _build_process(self, env: ProcessEnv) -> ElnozahyProcess:
        return ElnozahyProcess(env, self)
