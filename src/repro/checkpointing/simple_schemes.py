"""The strawman csn schemes of §3.1.1 and a no-mutable negative control.

These exist for the ablation study that motivates mutable checkpoints:

* **Basic scheme**: a process receiving a computation message whose csn
  is larger than expected takes an immediate *stable* checkpoint before
  processing it. Correct, but "may result in a large number of
  checkpoints … and may lead to an avalanche effect": each induced
  checkpoint raises the taker's own csn, inducing checkpoints at its
  correspondents in turn.
* **Revised scheme**: same, but only if the process has sent a message
  in the current checkpoint interval (the m4-exists test of §3.1.1).
  Fewer checkpoints, still avalanche-prone.
* **No-mutable control** (:class:`NoMutableVariantProtocol`): the full
  min-process request machinery with the mutable-checkpoint branch
  simply removed — the broken design point (≈ a Prakash-Singhal-style
  algorithm) whose committed recovery lines can contain orphan
  messages. Tests use it to show the consistency checkers actually have
  teeth, and why §2.4's impossibility forces either mutable checkpoints
  or inconsistency.

Induced checkpoints are unilateral: they go straight to stable storage
and become permanent without any commit round (traced with
``induced=True``). The request/commit flow for *coordinated* checkpoints
is inherited unchanged from the mutable algorithm.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.checkpointing.mutable import MutableCheckpointProcess, MutableCheckpointProtocol
from repro.checkpointing.protocol import ProcessEnv
from repro.checkpointing.types import CheckpointKind
from repro.net.message import ComputationMessage


class CsnSchemeProcess(MutableCheckpointProcess):
    """Per-process state machine of the basic/revised csn schemes."""

    def on_send_computation(self, message: ComputationMessage) -> None:
        message.pb = (self.csn[self.pid], None)
        self.sent = True

    def on_receive_computation(self, message, deliver: Callable[[], None]) -> None:
        j = message.src_pid
        recv_csn, _ = message.protocol_tags()
        if recv_csn <= self.csn[j]:
            self.r.add(j)
            deliver()
            return
        self.csn[j] = recv_csn
        if not self.protocol.revised or self.sent:
            self._take_induced_checkpoint()
        self.r.add(j)
        deliver()

    def _take_induced_checkpoint(self) -> None:
        """Unilateral stable checkpoint forced by a higher-csn message.

        This is the avalanche engine: the checkpoint bumps our own csn
        (so our future messages induce checkpoints downstream) *and*
        recursively asks every current dependency to checkpoint too
        ("processes in the system recursively ask others to take
        checkpoints", §3.1.1).
        """
        self.csn[self.pid] += 1
        deps = [k for k in sorted(self.r) if k != self.pid]
        record = self.make_checkpoint(
            self.csn[self.pid], CheckpointKind.TENTATIVE, None
        )
        self.old_csn = self.csn[self.pid]
        self.sent = False
        self.r = set()
        self.env.trace(
            "tentative",
            pid=self.pid,
            trigger=None,
            csn=record.csn,
            ckpt_id=record.ckpt_id,
            induced=True,
        )

        self._save_stable_and_then(record, partial(self._finish_induced, record))
        for k in deps:
            self.env.send_system(
                k,
                "induce",
                {
                    "req_csn": self.csn[k],
                    "recv_csn": self.csn[self.pid],
                    "from_pid": self.pid,
                },
            )

    def _finish_induced(self, record) -> None:
        self.env.make_permanent(record)
        self.env.trace(
            "permanent", pid=self.pid, trigger=None, ckpt_id=record.ckpt_id,
            induced=True,
        )

    def _on_induce(self, message) -> None:
        fields = message.fields
        from_pid = fields["from_pid"]
        self.csn[from_pid] = max(self.csn[from_pid], fields["recv_csn"])
        if self.old_csn <= fields["req_csn"]:
            self._take_induced_checkpoint()

    def on_system_message(self, message) -> None:
        if message.subkind == "induce":
            self._on_induce(message)
        else:
            super().on_system_message(message)


class BasicCsnProtocol(MutableCheckpointProtocol):
    """§3.1.1's first strawman: checkpoint on every higher-csn message."""

    name = "csn-basic"
    revised = False

    def _build_process(self, env: ProcessEnv) -> CsnSchemeProcess:
        return CsnSchemeProcess(env, self)


class RevisedCsnProtocol(MutableCheckpointProtocol):
    """§3.1.1's revised strawman: checkpoint only if sent this interval."""

    name = "csn-revised"
    revised = True

    def _build_process(self, env: ProcessEnv) -> CsnSchemeProcess:
        return CsnSchemeProcess(env, self)


class NoMutableVariantProcess(MutableCheckpointProcess):
    """The mutable algorithm with the mutable-checkpoint branch removed.

    Tagged computation messages are processed directly (only csn
    bookkeeping happens); no local checkpoint protects against the
    §2.4 z-dependency. Orphan messages can therefore survive into
    committed recovery lines — this is the *intended* failure mode.
    """

    def on_receive_computation(self, message, deliver: Callable[[], None]) -> None:
        j = message.src_pid
        recv_csn, msg_trigger = message.protocol_tags()
        if recv_csn > self.csn[j]:
            self.csn[j] = recv_csn
            if msg_trigger is not None and not self.cp_state:
                self.cp_state = True
                self.csn[self.pid] += 1
                self.own_trigger = msg_trigger
        self.r.add(j)
        deliver()


class NoMutableVariantProtocol(MutableCheckpointProtocol):
    """Negative control: min-process + nonblocking, no mutable checkpoints."""

    name = "no-mutable"

    def _build_process(self, env: ProcessEnv) -> NoMutableVariantProcess:
        return NoMutableVariantProcess(env, self)
