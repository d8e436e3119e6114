"""The Chandy-Lamport distributed snapshot [9] as a checkpointing baseline.

The earliest nonblocking algorithm: markers flood every channel, every
process records its state on the first marker, and each process records
the state of each incoming channel (messages that arrived after its own
snapshot but before that channel's marker). Message complexity is
O(N²) markers over the fully connected process graph, and all N
processes checkpoint — the two costs §6 contrasts with the paper's
algorithm.

Requires FIFO channels, which the network substrate guarantees per
(src, dst) pair.

For integration with the commit/recovery machinery, a coordinator wrapup
is added (as real deployments of C-L do): each process reports
completion to the initiator, which broadcasts commit; this does not
change the snapshot algorithm itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.checkpointing.protocol import CheckpointProtocol, ProcessEnv, ProtocolProcess
from repro.checkpointing.types import CheckpointKind, CheckpointRecord, Trigger
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage, SystemMessage


class ChandyLamportProcess(ProtocolProcess):
    """Per-process state machine of the Chandy-Lamport snapshot."""

    def __init__(self, env: ProcessEnv, protocol: "ChandyLamportProtocol") -> None:
        super().__init__(env)
        self.protocol = protocol
        #: snapshot generation this process has joined (0 = none yet)
        self.generation = 0
        self._recording: Set[int] = set()
        self._channel_state: Dict[int, List[int]] = {}
        self._record: Optional[CheckpointRecord] = None
        self._trigger: Optional[Trigger] = None
        self._own_save_done = False
        self._reported = False
        # initiator-side
        self._active: Optional[Trigger] = None
        self._done_from: Set[int] = set()

    # ------------------------------------------------------------------
    def on_send_computation(self, message: ComputationMessage) -> None:
        pass  # markers, not tags, separate the snapshot's channel states

    def on_receive_computation(self, message, deliver: Callable[[], None]) -> None:
        src = message.src_pid
        if src in self._recording:
            # Part of the channel state: arrived after our snapshot,
            # before the marker on this channel.
            self._channel_state.setdefault(src, []).append(message.msg_id)
        deliver()

    # ------------------------------------------------------------------
    def initiate(self) -> bool:
        if self._active is not None or self._trigger is not None:
            return False
        trigger = Trigger(self.pid, self.generation + 1)
        self._active = trigger
        self._done_from = set()
        self.env.trace("initiation", pid=self.pid, trigger=trigger)
        self._take_snapshot(trigger)
        return True

    def _take_snapshot(self, trigger: Trigger) -> None:
        """Record local state and flood markers (the C-L core step)."""
        self.generation = trigger.inum
        self._trigger = trigger
        self._own_save_done = False
        self._reported = False
        record = self.make_checkpoint(
            self.generation, CheckpointKind.TENTATIVE, trigger
        )
        self._record = record
        self._recording = {k for k in range(self.n) if k != self.pid}
        self._channel_state = {}
        self.env.trace(
            "tentative",
            pid=self.pid,
            trigger=trigger,
            csn=self.generation,
            ckpt_id=record.ckpt_id,
        )
        for k in range(self.n):
            if k != self.pid:
                self.env.send_system(k, "marker", {"trigger": trigger})
        self.env.transfer_to_stable(record, self._on_saved)

    def _on_saved(self) -> None:
        self._own_save_done = True
        self._maybe_report()

    # ------------------------------------------------------------------
    def _on_marker(self, message: SystemMessage) -> None:
        trigger: Trigger = message.fields["trigger"]
        src = message.src_pid
        if self._trigger != trigger and trigger.inum > self.generation:
            # First marker of this snapshot: record state, flood markers.
            self._take_snapshot(trigger)
        if self._trigger == trigger:
            # Channel (src -> me) state is now complete.
            self._recording.discard(src)
            self._maybe_report()

    def _maybe_report(self) -> None:
        if (
            self._trigger is None
            or self._recording
            or not self._own_save_done
            or self._reported
        ):
            return
        self._reported = True
        trigger = self._trigger
        assert self._record is not None
        # Channel states become part of the checkpoint.
        self._record.state["channel_state"] = {
            src: list(ids) for src, ids in self._channel_state.items()
        }
        if trigger.pid == self.pid:
            self._snapshot_done(self.pid)
        else:
            self.env.send_system(
                trigger.pid, "done", {"trigger": trigger, "from_pid": self.pid}
            )

    def _on_done(self, message: SystemMessage) -> None:
        if self._active is None or message.fields["trigger"] != self._active:
            return
        self._snapshot_done(message.fields["from_pid"])

    def _snapshot_done(self, pid: int) -> None:
        self._done_from.add(pid)
        if self._active is not None and len(self._done_from) == self.n:
            trigger = self._active
            self._active = None
            self.env.trace("commit", trigger=trigger)
            self.env.broadcast_system("commit", {"trigger": trigger})
            self._apply_commit(trigger)
            self.protocol.notify_commit(trigger)

    def _on_commit(self, message: SystemMessage) -> None:
        self._apply_commit(message.fields["trigger"])

    def _apply_commit(self, trigger: Trigger) -> None:
        if self._trigger != trigger or self._record is None:
            return
        self.env.make_permanent(self._record)
        self.env.trace(
            "permanent", pid=self.pid, trigger=trigger, ckpt_id=self._record.ckpt_id
        )
        self._record = None
        self._trigger = None
        self._recording = set()
        self._channel_state = {}

    # ------------------------------------------------------------------
    #: subkind -> handler, built once per class rather than per message
    _HANDLERS = {"marker": _on_marker, "done": _on_done, "commit": _on_commit}

    def on_system_message(self, message: SystemMessage) -> None:
        handler = self._HANDLERS.get(message.subkind)
        if handler is None:
            raise ProtocolError(f"unknown subkind {message.subkind!r}")
        handler(self, message)


class ChandyLamportProtocol(CheckpointProtocol):
    """System-wide factory for the Chandy-Lamport baseline."""

    name = "chandy-lamport"
    blocking = False
    distributed = True

    def _build_process(self, env: ProcessEnv) -> ChandyLamportProcess:
        return ChandyLamportProcess(env, self)
