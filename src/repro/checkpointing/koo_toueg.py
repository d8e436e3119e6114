"""The Koo-Toueg blocking, min-process checkpointing baseline [19].

Two-phase tree protocol: the initiator takes a tentative checkpoint and
sends requests along its dependency edges; each process that inherits a
request *blocks its underlying computation*, takes a tentative
checkpoint, and recursively requests its own dependencies. Replies flow
back up the tree; the initiator then propagates commit (or abort, if any
process was unwilling or failed) back down. Processes stay blocked from
their tentative checkpoint until the decision arrives — the blocking
time the paper's Table 1 charges as ``N_min * T_ch``.

Faithful properties reproduced here:

* min-process: the same "dependency fresh since your last checkpoint"
  test as the mutable algorithm (request carries the requester's view of
  the target's csn);
* no MR-style suppression: a process sends requests to *all* its
  dependencies, so the message cost is ``3 * N_min * N_dep * C_air``
  (request + reply + commit per tree edge, with duplicate requests
  answered trivially);
* blocking: computation messages are neither sent nor consumed between
  the tentative checkpoint and the decision (the runtime defers them);
* any process may refuse (``willing`` hook), aborting the whole
  checkpointing — the behaviour Kim-Park later improved.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set

from repro.checkpointing.protocol import CheckpointProtocol, ProcessEnv, ProtocolProcess
from repro.checkpointing.types import CheckpointKind, CheckpointRecord, Trigger
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage, SystemMessage


class KooTouegProcess(ProtocolProcess):
    """Per-process state machine of the Koo-Toueg protocol."""

    def __init__(self, env: ProcessEnv, protocol: "KooTouegProtocol") -> None:
        super().__init__(env)
        self.protocol = protocol
        self.r: Set[int] = set()
        self.csn: Dict[int, int] = defaultdict(int)
        self.old_csn = 0
        self.sent = False
        #: the initiation currently participated in (None when idle)
        self.current: Optional[Trigger] = None
        self.parent: Optional[int] = None
        self._tentative: Optional[CheckpointRecord] = None
        self._prev_context: Optional[tuple] = None
        self._awaiting: Set[int] = set()
        self._own_save_done = False
        self._replied = False
        self._children: List[int] = []
        self._is_initiator = False
        #: initiations this process has already seen aborted (see _on_request)
        self._aborted: Set[Trigger] = set()
        # Guards _maybe_finish until requests have been issued, so a
        # synchronously completing stable save cannot commit early.
        self._setup_done = False

    # ------------------------------------------------------------------
    def on_send_computation(self, message: ComputationMessage) -> None:
        message.pb = (self.csn[self.pid], None)
        self.sent = True

    def on_receive_computation(self, message, deliver: Callable[[], None]) -> None:
        # Blocking protocol: the runtime has already deferred this
        # delivery if we are blocked, so here we simply account the
        # dependency and deliver.
        j = message.src_pid
        pb = message.pb  # message.protocol_tags(), read in place
        recv_csn = 0 if pb is None else pb[0]
        if recv_csn > self.csn[j]:
            self.csn[j] = recv_csn
        self.r.add(j)
        deliver()

    # ------------------------------------------------------------------
    def initiate(self) -> bool:
        if self.current is not None:
            return False
        if not self.protocol.willing(self.pid):
            return False
        self.csn[self.pid] += 1
        trigger = Trigger(self.pid, self.csn[self.pid])
        self.current = trigger
        self.parent = None
        self._is_initiator = True
        self._setup_done = False
        self.env.trace("initiation", pid=self.pid, trigger=trigger)
        self._take_tentative(trigger)
        self._request_children(trigger)
        self._setup_done = True
        self._maybe_finish()
        return True

    # ------------------------------------------------------------------
    def _take_tentative(self, trigger: Trigger) -> None:
        self.env.block_computation()
        record = self.make_checkpoint(
            self.csn[self.pid], CheckpointKind.TENTATIVE, trigger
        )
        self._prev_context = (self.old_csn, self.r.copy(), self.sent)
        self._tentative = record
        self.old_csn = self.csn[self.pid]
        self._own_save_done = False
        self._replied = False
        self.env.trace(
            "tentative", pid=self.pid, trigger=trigger, csn=record.csn, ckpt_id=record.ckpt_id
        )
        self.env.transfer_to_stable(record, self._on_saved)

    def _on_saved(self) -> None:
        self._own_save_done = True
        self._maybe_finish()

    def _request_children(self, trigger: Trigger) -> None:
        self._children = [k for k in sorted(self.r) if k != self.pid]
        self._awaiting = set(self._children)
        for k in self._children:
            self.env.send_system(
                k,
                "request",
                {
                    "trigger": trigger,
                    "req_csn": self.csn[k],
                    "recv_csn": self.csn[self.pid],
                    "from_pid": self.pid,
                },
            )
        # The dependency set is consumed by this checkpoint.
        self.sent = False
        self.r = set()

    # ------------------------------------------------------------------
    def _on_request(self, message: SystemMessage) -> None:
        fields = message.fields
        trigger: Trigger = fields["trigger"]
        from_pid: int = fields["from_pid"]
        self.csn[from_pid] = max(self.csn[from_pid], fields["recv_csn"])
        if self.current == trigger:
            # Duplicate request from another parent: answer immediately.
            self.env.send_system(
                from_pid, "reply", {"trigger": trigger, "ok": True, "from_pid": self.pid}
            )
            return
        if self.current is not None or trigger in self._aborted:
            # Concurrent initiation: refuse, aborting the other tree
            # (Koo-Toueg's simple concurrency rule). A late request of a
            # tree already aborted here (a second parent's, still in
            # flight when the abort came down the first) is refused the
            # same way: re-joining would re-request our restored
            # dependencies, and on a dependency cycle those requests and
            # the aborts chasing them circulate forever.
            self.env.send_system(
                from_pid, "reply", {"trigger": trigger, "ok": False, "from_pid": self.pid}
            )
            return
        if self.old_csn > fields["req_csn"]:
            # Dependency already recorded in our stable checkpoint.
            self.env.send_system(
                from_pid, "reply", {"trigger": trigger, "ok": True, "from_pid": self.pid}
            )
            return
        if not self.protocol.willing(self.pid):
            self.env.send_system(
                from_pid, "reply", {"trigger": trigger, "ok": False, "from_pid": self.pid}
            )
            return
        self.current = trigger
        self.parent = from_pid
        self._is_initiator = False
        self._setup_done = False
        self.csn[self.pid] += 1
        self._take_tentative(trigger)
        self._request_children(trigger)
        self._setup_done = True
        self._maybe_finish()

    def _on_reply(self, message: SystemMessage) -> None:
        fields = message.fields
        if fields["trigger"] != self.current:
            return  # stale reply from an aborted initiation
        child = fields["from_pid"]
        self._awaiting.discard(child)
        if not fields["ok"]:
            if self._is_initiator:
                self._decide(False)
            elif not self._replied:
                # Bubble the refusal up; the abort will come back down
                # through the tree and clean up our subtree.
                self._replied = True
                assert self.parent is not None
                self.env.send_system(
                    self.parent,
                    "reply",
                    {"trigger": self.current, "ok": False, "from_pid": self.pid},
                )
            return
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.current is None or self._replied or not self._setup_done:
            return
        if self._awaiting or not self._own_save_done:
            return
        if self._is_initiator:
            self._decide(True)
        else:
            self._replied = True
            assert self.parent is not None
            self.env.send_system(
                self.parent,
                "reply",
                {"trigger": self.current, "ok": True, "from_pid": self.pid},
            )

    # ------------------------------------------------------------------
    def abort_initiation(self) -> None:
        """Initiator-side abort (§3.6: a participant failed)."""
        if not self._is_initiator or self.current is None:
            raise ProtocolError(f"process {self.pid} is not initiating")
        self._decide(False)

    @property
    def initiating(self) -> Optional[Trigger]:
        """The trigger this process is currently coordinating, if any
        (mirrors the mutable protocol's attribute for the injector)."""
        return self.current if self._is_initiator else None

    def _decide(self, commit: bool) -> None:
        """Initiator propagates the decision down the tree."""
        trigger = self.current
        assert trigger is not None and self._is_initiator
        self.env.trace("commit" if commit else "abort", trigger=trigger)
        self._propagate_decision(trigger, commit)
        self._apply_decision(trigger, commit)
        if commit:
            self.protocol.notify_commit(trigger)
        else:
            self.protocol.notify_abort(trigger)

    def _propagate_decision(self, trigger: Trigger, commit: bool) -> None:
        subkind = "commit" if commit else "abort"
        for k in self._children:
            self.env.send_system(k, subkind, {"trigger": trigger})

    def _on_decision(self, message: SystemMessage, commit: bool) -> None:
        trigger = message.fields["trigger"]
        if trigger != self.current:
            return
        self._propagate_decision(trigger, commit)
        self._apply_decision(trigger, commit)

    def _apply_decision(self, trigger: Trigger, commit: bool) -> None:
        record = self._tentative
        if record is not None:
            if commit:
                self.env.make_permanent(record)
                self.env.trace(
                    "permanent", pid=self.pid, trigger=trigger, ckpt_id=record.ckpt_id
                )
            else:
                assert self._prev_context is not None
                self.old_csn, prev_r, prev_sent = self._prev_context
                self.r |= prev_r
                self.sent = self.sent or prev_sent
                self._aborted.add(trigger)
                self.env.discard_stable(record)
                self.env.trace(
                    "tentative_discarded", pid=self.pid, trigger=trigger, ckpt_id=record.ckpt_id
                )
        self._tentative = None
        self._prev_context = None
        self.current = None
        self.parent = None
        self._children = []
        self._awaiting = set()
        self._is_initiator = False
        self.env.unblock_computation()

    # ------------------------------------------------------------------
    def on_system_message(self, message: SystemMessage) -> None:
        if message.subkind == "request":
            self._on_request(message)
        elif message.subkind == "reply":
            self._on_reply(message)
        elif message.subkind == "commit":
            self._on_decision(message, True)
        elif message.subkind == "abort":
            self._on_decision(message, False)
        else:
            raise ProtocolError(f"unknown subkind {message.subkind!r}")


class KooTouegProtocol(CheckpointProtocol):
    """System-wide factory for the Koo-Toueg baseline.

    ``willing`` lets tests model processes that refuse to checkpoint
    (Koo-Toueg aborts the whole coordination in that case).
    """

    name = "koo-toueg"
    blocking = True
    distributed = True

    def __init__(self, willing: Optional[Callable[[int], bool]] = None) -> None:
        super().__init__()
        self._willing = willing

    def willing(self, pid: int) -> bool:
        """Whether ``pid`` agrees to take a checkpoint right now."""
        return True if self._willing is None else self._willing(pid)

    def _build_process(self, env: ProcessEnv) -> KooTouegProcess:
        return KooTouegProcess(env, self)
