"""Rollback recovery from committed checkpoints.

Coordinated checkpointing's payoff: after a failure, every process
rolls back to its most recent *permanent* checkpoint and the set of
those checkpoints — the recovery line — is guaranteed consistent, so
at most one checkpoint per process needs to be kept (§6's storage
argument) and no line has to be searched for.

:class:`DistributedRecovery` restores processes to that line with one
body, :meth:`~DistributedRecovery._restore`: block the process, drop
its buffered activity, restore its application state and sent counts,
take its received counts from what the line's other checkpoints record
as sent to it (:func:`~repro.analysis.consistency.channel_received`:
every channel is empty after a coordinated rollback), wipe its local
store and adopt the round's *incarnation number*. It runs that body in
one of two ways:

* :meth:`~DistributedRecovery.recover` — the standard coordinated
  rollback protocol a deployed system uses (the paper defers to [20],
  [24], [28]): the initiator (typically a restarted process's MSS)
  restores itself and broadcasts ``rollback_request``; every process
  restores and answers ``rollback_ack``; when all acknowledgements are
  in, the initiator broadcasts ``resume`` and computation restarts;
* :meth:`~DistributedRecovery.rollback` — the same protocol at zero
  latency: every process restored at once, no messages, after the line
  is verified with the independent checkers.

Messages from the rolled-back incarnation that are still in flight when
computation resumes are discarded by the incarnation check in the
process runtime — the classic ghost-message defence.

A rollback must not race an active checkpointing coordination: both
forms abort it first (§3.6's rule: a failure during checkpointing
aborts it; recovery then proceeds from the last *committed* line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set

from repro.analysis.consistency import (
    assert_line_consistent,
    channel_received,
    latest_permanent_line,
)
from repro.checkpointing.types import CheckpointRecord
from repro.errors import ProtocolError
from repro.net.message import SystemMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


def active_initiators(system: "MobileSystem") -> Iterator:
    """Protocol processes currently coordinating an initiation.

    Works for every protocol that exposes ``initiating`` and
    ``abort_initiation`` (the mutable algorithm and Koo-Toueg).
    """
    for process in system.protocol.processes.values():
        if getattr(process, "initiating", None) is not None and hasattr(
            process, "abort_initiation"
        ):
            yield process


@dataclass
class RecoveryRound:
    """One recovery coordination, and what it undid.

    ``lost_messages`` counts application deliveries no longer reflected
    in any process state (received after the recovery line) — the
    computation to be re-executed after restart — over the processes
    restored so far. ``None`` (unjudged) when a process or a record of
    the line keeps no counts.
    """

    incarnation: int
    #: the pid that broadcasts; ``None`` for the instant rollback
    initiator: Optional[int]
    started_at: float
    line: Dict[int, CheckpointRecord]
    lost_messages: Optional[int] = 0
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
    """Coordinated rollback, over protocol messages or all at once."""

    def __init__(self, system: "MobileSystem") -> None:
        self.system = system
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
        """Start a coordinated rollback from ``initiator_pid``."""
        round_ = self._start(initiator_pid)
        self._active = round_
        # The initiator rolls itself back immediately and "broadcasts".
        self._restore(self.system.processes[initiator_pid], round_)
        round_.acked.add(initiator_pid)
        for pid in self.system.processes:
            if pid != initiator_pid:
                self._send(initiator_pid, pid, "rollback_request",
                           {"incarnation": round_.incarnation,
                            "initiator": initiator_pid})
        self._maybe_resume()
        return round_

    def rollback(self) -> RecoveryRound:
        """Roll every process back to the recovery line now.

        The line is verified first (belt-and-braces, with the
        independent checkers); every process is then restored and
        unblocked, as if :meth:`recover` ran at zero latency.
        """
        round_ = self._start(None)
        assert_line_consistent(self.system.sim.trace, round_.line)
        processes = self.system.processes.values()
        for process in processes:
            self._restore(process, round_)
        for process in processes:
            process.unblock()
        self._complete(round_)
        return round_

    # ------------------------------------------------------------------
    def _start(self, initiator: Optional[int]) -> RecoveryRound:
        if self._active is not None:
            raise ProtocolError("a recovery round is already in progress")
        for process in active_initiators(self.system):
            process.abort_initiation()
        system = self.system
        round_ = RecoveryRound(
            incarnation=max(p.incarnation for p in system.processes.values()) + 1,
            initiator=initiator,
            started_at=system.sim.now,
            line=latest_permanent_line(system.all_stable_storages(), system.processes),
        )
        system.sim.trace.record(
            system.sim.now,
            "recovery_started",
            initiator=initiator,
            incarnation=round_.incarnation,
        )
        return round_

    def _restore(self, process, round_: RecoveryRound) -> None:
        record = round_.line[process.pid]
        # Deliveries after the line, undone below: what the process has
        # received less what its checkpoint recorded.
        now, then = process.received, record.received
        if now is None or then is None:
            round_.lost_messages = None
        elif round_.lost_messages is not None:
            round_.lost_messages += sum(now.values()) - sum(then.values())
        process.block()
        process.discard_deferred()
        process.restore_state(
            record.state, record.sent, channel_received(round_.line, process.pid)
        )
        process.local_store.wipe()
        process.incarnation = round_.incarnation
        self.system.sim.trace.record(
            self.system.sim.now,
            "rolled_back",
            pid=process.pid,
            ckpt_id=record.ckpt_id,
            incarnation=round_.incarnation,
        )

    def _complete(self, round_: RecoveryRound) -> None:
        round_.resumed_at = self.system.sim.now
        self._active = None
        self.system.sim.trace.record(
            self.system.sim.now,
            "recovery_complete",
            incarnation=round_.incarnation,
            duration=round_.duration,
        )

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

    def _on_rollback_request(self, process, message: SystemMessage) -> None:
        fields = message.fields
        if fields["incarnation"] <= process.incarnation:
            return  # duplicate / stale request
        self._restore(process, self._active)
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
        for pid in self.system.processes:
            if pid != round_.initiator:
                self._send(round_.initiator, pid, "resume",
                           {"incarnation": round_.incarnation})
        self.system.processes[round_.initiator].unblock()
        self._complete(round_)

    def _on_resume(self, process, message: SystemMessage) -> None:
        if message.fields["incarnation"] == process.incarnation:
            process.unblock()
