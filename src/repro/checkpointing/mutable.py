"""The mutable-checkpoint coordinated checkpointing algorithm (paper §3).

This is the paper's contribution: a *nonblocking* algorithm in which only
a minimum number of processes write checkpoints to stable storage, with
*mutable checkpoints* — cheap local-memory checkpoints taken on receipt
of suspicious computation messages — absorbing the impossibility result
of §2.4 instead of blocking or avalanching.

The implementation follows the §3.3 pseudocode block by block; method
names reference the corresponding block. One deliberate generalization:
the paper's singular ``CP_i`` record is a dict keyed by trigger, so the
Fig. 3 situation (mutable checkpoints for two overlapping initiations,
which the single-initiation presentation of §3.3 excludes) behaves as
§3.1.2 prescribes: ``C_{1,1}`` is promoted by the initiator's request
while ``C_{1,2}`` is discarded at the other initiation's commit. With
non-overlapping initiations the dict never holds more than one entry and
the behaviour is exactly the pseudocode's.

Termination weights are exact fractions (see
:mod:`repro.checkpointing.weights`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.checkpointing.protocol import (
    CheckpointProtocol,
    ProcessEnv,
    ProtocolProcess,
    noop,
)
from repro.checkpointing.state import BitVector, IntVector, true_indices
from repro.checkpointing.types import (
    CheckpointKind,
    CheckpointRecord,
    MREntry,
    MutableCheckpointRecord,
    Trigger,
    fresh_mr,
)
from repro.checkpointing.weights import ONE, ZERO, WeightLedger, as_weight, split
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage, SystemMessage


@dataclass
class _TentativeContext:
    """State saved when taking a tentative checkpoint, restored on abort."""

    record: CheckpointRecord
    prev_old_csn: int
    prev_r: BitVector
    prev_sent: bool


class MutableCheckpointProcess(ProtocolProcess):
    """Per-process state machine of the §3.3 algorithm."""

    # the delivery queue holds live runtime thunks, not algorithm state
    _state_dict_exclude = frozenset({"_delivery_queue"})

    def __init__(self, env: ProcessEnv, protocol: "MutableCheckpointProtocol") -> None:
        super().__init__(env)
        self.protocol = protocol
        n = self.n
        # §3.2 data structures (array-backed; see checkpointing.state)
        self.r = BitVector(n)
        self.csn = IntVector(n)
        # Highest *committed* inum known per initiator. The paper folds
        # this into csn[] (commit sets csn_j[pid] = inum), but that
        # breaks the Fig. 4 suppression: req_csn must reflect the csn at
        # which the dependency message was sent, not commit gossip, or a
        # post-commit request is no longer recognized as stale. Keeping
        # commit knowledge separate satisfies both §3.1.3 and §3.3.4.
        self.commit_known = IntVector(n)
        self.sent = False
        self.cp_state = False
        self.own_trigger = Trigger(self.pid, 0)
        self.old_csn = 0
        #: mutable checkpoints held locally, keyed by the initiation that
        #: triggered them (the paper's CP_i, generalized — see module doc)
        self.mutables: Dict[Trigger, MutableCheckpointRecord] = {}
        #: tentative checkpoints awaiting commit/abort, by initiation
        self.pending_tentative: Dict[Trigger, _TentativeContext] = {}
        #: initiations known to have aborted (stale requests are refused)
        self.aborted: set = set()
        # §3.3.5 update-mode bookkeeping: processes we sent tagged
        # computation messages to, per initiation — they may hold
        # cp_state/mutable state that a unicast commit must also clear.
        self.tagged_sent: Dict[Trigger, set] = {}
        # initiator-side state
        self.weight: Fraction = ZERO
        self.initiating: Optional[Trigger] = None
        self._repliers: set = set()
        self._own_save_done = False
        # Application hand-offs held while a local mutable-checkpoint
        # copy is in progress. The process handles messages one at a
        # time: a message arriving during the copy must not overtake
        # the one that triggered it (FIFO, §2.1).
        self._delivery_queue: Deque[Callable[[], None]] = deque()

    # ------------------------------------------------------------------
    # Block: "Actions taken when P_i sends a computation message to P_j"
    # ------------------------------------------------------------------
    def on_send_computation(self, message: ComputationMessage) -> None:
        # Zero-alloc fast lane: the (csn, trigger) pair rides in the
        # message's dedicated tuple slot instead of the piggyback dict.
        if self.cp_state:
            message.pb = (self.csn[self.pid], self.own_trigger)
            if self.protocol.commit_mode != "broadcast":
                self.tagged_sent.setdefault(self.own_trigger, set()).add(
                    message.dst_pid
                )
        else:
            message.pb = (self.csn[self.pid], None)
        self.sent = True

    # ------------------------------------------------------------------
    # Block: "Actions for the initiator P_j"
    # ------------------------------------------------------------------
    def initiate(self) -> bool:
        if self.cp_state or self.initiating is not None:
            return False
        self.csn[self.pid] += 1
        self.own_trigger = Trigger(self.pid, self.csn[self.pid])
        trigger = self.own_trigger
        self.cp_state = True
        self.initiating = trigger
        self._own_save_done = False
        self._repliers = set()
        self.weight = ZERO
        if self.protocol.ledger is not None:
            self.protocol.ledger.begin(self.pid)
        self.env.trace("initiation", pid=self.pid, trigger=trigger)
        mr = fresh_mr(self.n)
        mr[self.pid] = MREntry(self.csn[self.pid], True)
        remaining = self._prop_cp(self.r, mr, trigger, ONE)
        self.weight = remaining
        record = self.make_checkpoint(
            self.csn[self.pid], CheckpointKind.TENTATIVE, trigger
        )
        self._register_tentative(record)
        self.old_csn = self.csn[self.pid]
        self.sent = False
        self.r = BitVector(self.n)
        self.env.trace(
            "tentative", pid=self.pid, trigger=trigger, csn=record.csn,
            ckpt_id=record.ckpt_id, via="initiator",
        )
        self._save_stable_and_then(record, self._on_initiator_save_done)
        return True

    def _on_initiator_save_done(self) -> None:
        self._own_save_done = True
        self._maybe_commit()

    def _save_stable_and_then(
        self, record: CheckpointRecord, fn: Callable[[], None]
    ) -> None:
        """Ship ``record`` to stable storage, then run ``fn``.

        With ``reply_after_transfer`` (strict mode) ``fn`` waits for the
        data to reach the MSS; by default (the paper's §5.2 precopy
        model) ``fn`` runs after the local memory copy and the transfer
        drains in the background.
        """
        if self.protocol.reply_after_transfer:
            self.env.transfer_to_stable(record, fn)
        else:
            self.env.transfer_to_stable(record, noop)
            save_time = self.env.mutable_save_time
            if save_time > 0:
                self.env.schedule(save_time, fn)
            else:
                fn()

    # ------------------------------------------------------------------
    # Subroutine prop_cp(R, MR, P_i, msg_trigger, recv_weight)
    # ------------------------------------------------------------------
    def _prop_cp(
        self,
        r_vec: BitVector,
        mr,
        msg_trigger: Trigger,
        recv_weight: Fraction,
    ) -> Fraction:
        """Propagate checkpoint requests to uncovered dependencies.

        Returns the weight retained after halving once per request sent.

        Two deviations from the §3.3 pseudocode, both found necessary by
        property-based testing and both consistent with the paper's
        *prose* description of MR ("req_csn is appended with the request
        and saved in MR[k].csn"):

        * skip P_k only if some process is known to have *already sent*
          it a request (MR[k].R) with a req_csn at least as fresh as
          ours — the pseudocode's bare csn comparison also skips the
          never-requested case where both csns are 0, dropping
          dependencies outright;
        * MR[k].csn is updated only when a request to P_k is actually
          sent. The pseudocode's unconditional ``max(MR[k].csn,
          csn_i[k])`` lets csn knowledge from processes that never
          requested P_k inflate the entry, so a later process with a
          genuinely fresher dependency wrongly believes P_k is covered
          and the needed checkpoint is never taken (an orphan results).
        """
        weight = recv_weight  # ONE, or already checked by _on_request
        send_set = [
            k
            for k in true_indices(r_vec)
            if k != self.pid
            and not (mr[k].r and mr[k].csn >= self.csn[k])
        ]
        temp = mr.copy()
        for k in send_set:
            temp[k] = MREntry(max(mr[k].csn, self.csn[k]), True)
        for k in send_set:
            weight = split(weight)
            if self.protocol.ledger is not None:
                self.protocol.ledger.move_to_request(self.pid, weight)
            self.env.send_system(
                k,
                "request",
                {
                    "mr": temp,
                    "recv_csn": self.csn[self.pid],
                    "trigger": msg_trigger,
                    "req_csn": self.csn[k],
                    "weight": weight,
                    "from_pid": self.pid,
                },
            )
        return weight

    # ------------------------------------------------------------------
    # Block: "Actions at process P_i, on receiving a checkpoint request"
    # ------------------------------------------------------------------
    def _on_request(self, message: SystemMessage) -> None:
        fields = message.fields
        from_pid: int = fields["from_pid"]
        mr = fields["mr"]
        recv_csn: int = fields["recv_csn"]
        msg_trigger: Trigger = fields["trigger"]
        req_csn: int = fields["req_csn"]
        recv_weight: Fraction = as_weight(fields["weight"])
        if self.protocol.ledger is not None:
            self.protocol.ledger.request_arrived(self.pid, recv_weight)

        # NOTE: the paper's pseudocode updates csn_i[j] from the request
        # unconditionally, *before* the inherit test. Property-based
        # testing found that to be unsound: if this process declines
        # (old_csn > req_csn) but the nonblocking initiator keeps sending
        # tagged messages, the inflated csn entry suppresses the mutable
        # checkpoint those messages need (first branch of the
        # computation-message handler), while the initiator's MR
        # self-marker suppresses the repair request — an orphan results.
        # We therefore update csn[from] only on the paths that end with a
        # checkpoint (or already took one) for this trigger.
        if msg_trigger in self.aborted:
            # A request of an already-aborted initiation still in flight;
            # taking a checkpoint for it would leak a tentative forever.
            self._send_reply(msg_trigger, recv_weight)
            return
        if self.old_csn > req_csn:
            # §3.1.3: the dependency that provoked this request is already
            # recorded in our current stable checkpoint.
            self._send_reply(msg_trigger, recv_weight)
            return
        self.csn[from_pid] = max(self.csn[from_pid], recv_csn)
        self.cp_state = True
        if msg_trigger == self.own_trigger:
            mutable = self.mutables.pop(msg_trigger, None)
            if mutable is not None:
                remaining = self._prop_cp(mutable.saved_r, mr, msg_trigger, recv_weight)
                self._promote_mutable(mutable, msg_trigger, remaining, from_pid)
            else:
                self._send_reply(msg_trigger, recv_weight)
        elif msg_trigger in self.mutables:
            # Holding a mutable checkpoint for this initiation without
            # having inherited yet: promote it (paper §3.1.2 — the
            # own_trigger comparison covers this in the single-initiation
            # presentation; the dict generalization needs it explicit).
            mutable = self.mutables.pop(msg_trigger)
            self.csn[self.pid] += 1
            self.own_trigger = msg_trigger
            remaining = self._prop_cp(mutable.saved_r, mr, msg_trigger, recv_weight)
            self._promote_mutable(mutable, msg_trigger, remaining, from_pid)
        else:
            self.csn[self.pid] += 1
            self.own_trigger = msg_trigger
            remaining = self._prop_cp(self.r, mr, msg_trigger, recv_weight)
            record = self.make_checkpoint(
                self.csn[self.pid], CheckpointKind.TENTATIVE, msg_trigger
            )
            context = _TentativeContext(
                record=record,
                prev_old_csn=self.old_csn,
                prev_r=self.r.copy(),
                prev_sent=self.sent,
            )
            self._register_tentative(record, context)
            self.old_csn = self.csn[self.pid]
            self.sent = False
            self.r = BitVector(self.n)
            self.env.trace(
                "tentative",
                pid=self.pid,
                trigger=msg_trigger,
                csn=record.csn,
                ckpt_id=record.ckpt_id,
                via="request",
                from_pid=from_pid,
            )
            self._save_stable_and_then(
                record, partial(self._send_reply, msg_trigger, remaining)
            )

    def _promote_mutable(
        self,
        mutable: MutableCheckpointRecord,
        msg_trigger: Trigger,
        remaining: Fraction,
        from_pid: int,
    ) -> None:
        """Turn a mutable checkpoint into a tentative one (stable save)."""
        record = mutable.checkpoint
        record.kind = CheckpointKind.TENTATIVE
        record.trigger = msg_trigger
        self.env.discard_mutable(record)
        context = _TentativeContext(
            record=record,
            prev_old_csn=self.old_csn,
            prev_r=mutable.saved_r,
            prev_sent=mutable.saved_sent,
        )
        self._register_tentative(record, context)
        self.old_csn = self.csn[self.pid]
        self.env.trace(
            "mutable_promoted", pid=self.pid, trigger=msg_trigger,
            ckpt_id=record.ckpt_id, from_pid=from_pid,
        )
        self.env.trace(
            "tentative",
            pid=self.pid,
            trigger=msg_trigger,
            csn=record.csn,
            ckpt_id=record.ckpt_id,
            via="promotion",
            from_pid=from_pid,
        )
        self._save_stable_and_then(
            record, partial(self._send_reply, msg_trigger, remaining)
        )

    def _register_tentative(
        self, record: CheckpointRecord, context: Optional[_TentativeContext] = None
    ) -> None:
        trigger = record.trigger
        assert trigger is not None
        if trigger in self.pending_tentative:
            raise ProtocolError(
                f"process {self.pid} took two tentative checkpoints for {trigger}"
            )
        if context is None:
            context = _TentativeContext(
                record=record,
                prev_old_csn=self.old_csn,
                prev_r=self.r.copy(),
                prev_sent=self.sent,
            )
        self.pending_tentative[trigger] = context

    def _send_reply(self, trigger: Trigger, weight: Fraction) -> None:
        if trigger.pid == self.pid:
            # Requests can loop back to the initiator; it keeps the weight.
            self._absorb_reply_weight(weight)
            return
        if self.protocol.ledger is not None:
            self.protocol.ledger.move_to_reply(self.pid, weight)
        self.env.send_system(
            trigger.pid,
            "reply",
            {"weight": weight, "trigger": trigger, "from_pid": self.pid},
        )

    def _hand_off(self, deliver: Callable[[], None], busy_time: float = 0.0) -> None:
        """Hand a message to the application, preserving arrival order.

        While a mutable-checkpoint copy is in progress (``busy_time`` of
        the triggering message has not elapsed), later arrivals must wait
        behind it: the process handles one message at a time, so letting
        them through immediately would reorder a FIFO channel (§2.1).
        """
        if not self._delivery_queue and busy_time <= 0.0:
            deliver()
            return
        self._delivery_queue.append(deliver)
        if len(self._delivery_queue) == 1:
            self.env.schedule(busy_time, self._drain_delivery)

    def _drain_delivery(self) -> None:
        while self._delivery_queue:
            self._delivery_queue.popleft()()

    # ------------------------------------------------------------------
    # Block: "Actions at P_i, on receiving a computation message from P_j"
    # ------------------------------------------------------------------
    def on_receive_computation(
        self, message: ComputationMessage, deliver: Callable[[], None]
    ) -> None:
        j = message.src_pid
        recv_csn, msg_trigger = message.protocol_tags()
        if recv_csn <= self.csn[j]:
            self.r[j] = True
            self._hand_off(deliver)
            return
        if msg_trigger is not None and (
            self.csn[msg_trigger.pid] >= msg_trigger.inum
            or self.commit_known[msg_trigger.pid] >= msg_trigger.inum
        ):
            # We already know about this initiation (we heard from the
            # initiator, or saw its commit): no mutable checkpoint needed.
            self.csn[j] = recv_csn
            self.r[j] = True
            self._hand_off(deliver)
            return
        self.csn[j] = recv_csn
        took_mutable = False
        if (
            msg_trigger is not None
            and self.sent
            and msg_trigger != self.own_trigger
            and msg_trigger not in self.mutables
        ):
            record = self.make_checkpoint(
                self.csn[self.pid] + 1, CheckpointKind.MUTABLE, msg_trigger
            )
            self.mutables[msg_trigger] = MutableCheckpointRecord(
                checkpoint=record,
                trigger=msg_trigger,
                saved_r=self.r.copy(),
                saved_sent=self.sent,
            )
            self.env.save_mutable(record)
            self.env.trace(
                "mutable",
                pid=self.pid,
                trigger=msg_trigger,
                csn=record.csn,
                ckpt_id=record.ckpt_id,
                from_pid=j,
                msg_id=message.msg_id,
            )
            self.sent = False
            self.r = BitVector(self.n)
            took_mutable = True
        if msg_trigger is not None and not self.cp_state:
            self.cp_state = True
            self.csn[self.pid] += 1
            self.own_trigger = msg_trigger
        self.r[j] = True
        # The message is processed after the local state copy completes;
        # protocol state above already reflects the new interval, so
        # delaying only the application hand-off is safe.
        busy = self.env.mutable_save_time if took_mutable else 0.0
        self._hand_off(deliver, busy_time=busy)

    # ------------------------------------------------------------------
    # Block: second phase (initiator) + commit reception (others)
    # ------------------------------------------------------------------
    def _on_reply(self, message: SystemMessage) -> None:
        weight = as_weight(message.fields["weight"])
        if self.initiating is None or message.fields.get("trigger") != self.initiating:
            # A reply for an initiation this process already aborted:
            # its weight is dead, drop it.
            self.env.trace("stale_reply", pid=self.pid)
            return
        if self.protocol.ledger is not None:
            self.protocol.ledger.reply_arrived(self.pid, weight)
        from_pid = message.fields.get("from_pid")
        if from_pid is not None:
            self._repliers.add(from_pid)
        self._absorb_reply_weight(weight)

    def _absorb_reply_weight(self, weight: Fraction) -> None:
        self.weight += weight
        self._maybe_commit()

    def _maybe_commit(self) -> None:
        if self.initiating is None or self.weight != ONE or not self._own_save_done:
            return
        trigger = self.initiating
        self.initiating = None
        self.weight = ZERO
        repliers = self._repliers
        self._repliers = set()
        if self.protocol.ledger is not None:
            self.protocol.ledger.check()
            self.protocol.ledger.end()
        self.env.trace("commit", trigger=trigger)
        mode = self.protocol.commit_mode
        if mode == "auto":
            # §3.3.5: a counter decides per initiation — broadcast when
            # many processes took checkpoints, unicast when few.
            mode = (
                "broadcast"
                if len(repliers) > self.protocol.update_threshold
                else "update"
            )
        if mode == "broadcast":
            self.env.broadcast_system("commit", {"trigger": trigger})
            self._apply_commit(trigger)
        else:
            # Update mode: unicast commit to the repliers; anyone who
            # only saw our tagged computation messages is cleared by the
            # recursive clear wave in _on_commit.
            targets = repliers | self.tagged_sent.get(trigger, set())
            targets.discard(self.pid)
            for pid in sorted(targets):
                self.env.send_system(pid, "commit", {"trigger": trigger, "update": True})
            self.tagged_sent.pop(trigger, None)
            self._apply_commit(trigger)
        self.protocol.notify_commit(trigger)

    def _on_commit(self, message: SystemMessage) -> None:
        trigger = message.fields["trigger"]
        exclude = message.fields.get("exclude", ())
        if self.pid in exclude:
            # Kim-Park partial commit (§3.6): we depend on a failed
            # process, so our checkpoint aborts while others commit.
            self._apply_abort(trigger)
            return
        if message.fields.get("update"):
            # §3.3.5 update mode: forward the clear wave to everyone we
            # tagged before processing (idempotence guard: only the
            # first commit for this trigger forwards).
            already = self.commit_known[trigger.pid] >= trigger.inum
            targets = self.tagged_sent.pop(trigger, set())
            if not already:
                targets.discard(self.pid)
                for pid in sorted(targets):
                    self.env.send_system(
                        pid, "commit", {"trigger": trigger, "update": True}
                    )
        self._apply_commit(trigger)

    def _apply_commit(self, trigger: Trigger) -> None:
        self.commit_known[trigger.pid] = max(
            self.commit_known[trigger.pid], trigger.inum
        )
        # The pseudocode clears cp_state unconditionally, which is sound
        # only under §3.3's single-initiation assumption. With overlap,
        # a bystander commit must not strip a process engaged in a
        # *different* wave of its tag: its post-checkpoint sends would
        # go out untagged and receivers would skip the mutable
        # checkpoint those messages need (orphan; found by explore).
        if trigger == self.own_trigger:
            self.cp_state = False
        mutable = self.mutables.pop(trigger, None)
        if mutable is not None:
            # §3.3.4: a discarded mutable checkpoint gives back its saved
            # dependency context.
            self.sent = self.sent or mutable.saved_sent
            self.r.or_with(mutable.saved_r)
            self.env.discard_mutable(mutable.checkpoint)
            self.env.trace(
                "mutable_discarded",
                pid=self.pid,
                trigger=trigger,
                ckpt_id=mutable.checkpoint.ckpt_id,
            )
        context = self.pending_tentative.pop(trigger, None)
        if context is not None:
            self.env.make_permanent(context.record)
            self.env.trace(
                "permanent", pid=self.pid, trigger=trigger, ckpt_id=context.record.ckpt_id
            )

    # ------------------------------------------------------------------
    # Abort (failures during checkpointing, §3.6)
    # ------------------------------------------------------------------
    def abort_initiation(self) -> None:
        """Initiator-side: broadcast abort for the current initiation."""
        if self.initiating is None:
            raise ProtocolError(f"process {self.pid} is not initiating")
        trigger = self.initiating
        self.initiating = None
        self.weight = ZERO
        if self.protocol.ledger is not None:
            self.protocol.ledger.end()
        self.env.trace("abort", trigger=trigger)
        self.env.broadcast_system("abort", {"trigger": trigger})
        self._apply_abort(trigger)
        self.protocol.notify_abort(trigger)

    def _on_abort(self, message: SystemMessage) -> None:
        self._apply_abort(message.fields["trigger"])

    def _apply_abort(self, trigger: Trigger) -> None:
        # Scoped like _apply_commit: only the wave we are actually in
        # releases our cp_state.
        if trigger == self.own_trigger:
            self.cp_state = False
        self.aborted.add(trigger)
        self.tagged_sent.pop(trigger, None)
        mutable = self.mutables.pop(trigger, None)
        if mutable is not None:
            self.sent = self.sent or mutable.saved_sent
            self.r.or_with(mutable.saved_r)
            self.env.discard_mutable(mutable.checkpoint)
            self.env.trace(
                "mutable_discarded",
                pid=self.pid,
                trigger=trigger,
                ckpt_id=mutable.checkpoint.ckpt_id,
            )
        context = self.pending_tentative.pop(trigger, None)
        if context is not None:
            # Restore the dependency context the tentative checkpoint
            # consumed, so the dependencies are re-requested next time.
            self.old_csn = context.prev_old_csn
            self.sent = self.sent or context.prev_sent
            self.r.or_with(context.prev_r)
            self.env.discard_stable(context.record)
            self.env.trace(
                "tentative_discarded",
                pid=self.pid,
                trigger=trigger,
                ckpt_id=context.record.ckpt_id,
            )

    # ------------------------------------------------------------------
    def on_system_message(self, message: SystemMessage) -> None:
        handler = {
            "request": self._on_request,
            "reply": self._on_reply,
            "commit": self._on_commit,
            "abort": self._on_abort,
        }.get(message.subkind)
        if handler is None:
            raise ProtocolError(
                f"unknown system message subkind {message.subkind!r}"
            )
        handler(message)


class MutableCheckpointProtocol(CheckpointProtocol):
    """System-wide factory for the mutable-checkpoint algorithm.

    Parameters
    ----------
    track_weights:
        When True, a :class:`WeightLedger` asserts Lemma 2's weight
        invariant continuously (used in tests; adds overhead).
    reply_after_transfer:
        True (default) is the paper's accounting: a process replies once
        its checkpoint reached stable storage, so commit implies
        durability and the checkpointing time includes the transfers
        (T_ch = T_msg + T_data + T_disk, up to ~32 s for N = 16 on the
        shared 2 Mbps cell). False is the aggressive precopy mode: the
        reply leaves after the 2.5 ms local copy and the transfer drains
        in the background, shrinking the checkpointing window to
        message-delay scale (an ablation for the overhead study).
    """

    name = "mutable"
    blocking = False
    distributed = True

    def __init__(
        self,
        track_weights: bool = False,
        reply_after_transfer: bool = True,
        commit_mode: str = "broadcast",
        update_threshold: Optional[int] = None,
    ) -> None:
        super().__init__()
        if commit_mode not in ("broadcast", "update", "auto"):
            raise ProtocolError(f"unknown commit mode {commit_mode!r}")
        self.ledger: Optional[WeightLedger] = WeightLedger() if track_weights else None
        self.reply_after_transfer = reply_after_transfer
        self.commit_mode = commit_mode
        #: auto mode broadcasts when more than this many processes
        #: replied (defaults to half the system at first use)
        self._update_threshold = update_threshold

    @property
    def update_threshold(self) -> int:
        if self._update_threshold is not None:
            return self._update_threshold
        n = len(self.processes)
        return max(1, n // 2)

    def _build_process(self, env: ProcessEnv) -> MutableCheckpointProcess:
        return MutableCheckpointProcess(env, self)
