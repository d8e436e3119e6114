"""Failure injection and failure handling during checkpointing (§3.6).

Unexpected MH failures during a checkpointing coordination are handled
by either of the two policies the paper discusses:

* **Abort** (Koo-Toueg style, the paper's "simplest way"): the process
  that detects the failure notifies the initiator, which broadcasts
  ``abort``; every participant discards its tentative/mutable
  checkpoints and restores its dependency bookkeeping.
* **Partial commit** (Kim-Park [18]): processes whose checkpoint does
  not depend on the failed process commit locally; only the subtree
  affected by the failure aborts. Implemented here as a commit filter
  the initiator applies: it broadcasts a commit carrying the set of
  pids allowed to commit; others behave as if aborted.

:class:`FailureInjector` kills an MH at a chosen time: the process
stops (its handler drops messages), volatile state (mutable
checkpoints) is wiped, and — if a checkpointing is in progress — the
configured policy runs. Recovery afterwards is
:class:`~repro.checkpointing.recovery.DistributedRecovery`'s job.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Set

from repro.checkpointing.mutable import MutableCheckpointProcess
from repro.checkpointing.recovery import active_initiators
from repro.checkpointing.types import Trigger
from repro.errors import ProtocolError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


class FailurePolicy(enum.Enum):
    """How a failure during checkpointing is resolved."""

    ABORT = "abort"
    PARTIAL_COMMIT = "partial_commit"


class FailureInjector:
    """Kills mobile hosts and drives the §3.6 failure protocol."""

    def __init__(
        self,
        system: "MobileSystem",
        policy: FailurePolicy = FailurePolicy.ABORT,
    ) -> None:
        self.system = system
        self.policy = policy
        self.failed_pids: Set[int] = set()

    def fail_process(self, pid: int) -> None:
        """Crash ``pid``'s MH now: volatile state lost, messages dropped."""
        if pid in self.failed_pids:
            return
        self.failed_pids.add(pid)
        process = self.system.processes[pid]
        process.local_store.wipe()
        host = process.host
        # Fail-stop: the host silently drops everything from now on.
        host._process_handlers[pid] = self._drop
        self.system.sim.trace.record(self.system.sim.now, "failure", pid=pid)
        self._handle_in_progress_checkpointing(pid)

    def _drop(self, message: Message) -> None:
        self.system.metrics.counter("messages_to_failed").inc()

    # ------------------------------------------------------------------
    def _handle_in_progress_checkpointing(self, failed_pid: int) -> None:
        """§3.6: resolve an active coordination touched by the failure."""
        initiator = next(active_initiators(self.system), None)
        if initiator is None:
            return
        if initiator.pid == failed_pid:
            # The coordinator itself failed before commit/abort: on
            # restart it would broadcast abort; we model the broadcast
            # here (restart is the recovery layer's concern).
            self._force_abort(initiator)
            return
        if self.policy is FailurePolicy.ABORT or not isinstance(
            initiator, MutableCheckpointProcess
        ):
            # Kim-Park partial commit needs the mutable protocol's
            # per-participant contexts; other protocols fall back to
            # the whole-checkpointing abort (exactly what [19] does).
            self._force_abort(initiator)
        else:
            self._partial_commit(initiator, failed_pid)

    def _force_abort(self, initiator) -> None:
        initiator.abort_initiation()

    def _partial_commit(
        self, initiator: MutableCheckpointProcess, failed_pid: int
    ) -> None:
        """Kim-Park: commit participants that do not depend on the failed
        process; the failed process and everyone depending on it abort.

        "Depends on" uses each participant's dependency vector as of its
        tentative checkpoint (the ``prev_r`` saved in its tentative
        context): if the participant received from the failed process in
        the interval its tentative records, committing it could orphan a
        message whose send died with the failed host's tentative.

        The injector plays the role of the failure detector: it reads
        participant state omnisciently, which a real deployment would
        learn through the notification messages of [18].
        """
        trigger = initiator.initiating
        assert trigger is not None
        participants = {}
        for pid, proc in self.system.protocol.processes.items():
            if not isinstance(proc, MutableCheckpointProcess):
                continue
            context = proc.pending_tentative.get(trigger)
            if context is not None:
                participants[pid] = context
        # Transitive closure: if A depends on the failed process, A's
        # tentative aborts, which un-records A's recent sends — so
        # anyone whose tentative recorded a receive from A must abort
        # too, or that receive becomes an orphan. Iterate to fixpoint.
        excluded_set: Set[int] = {failed_pid} | set(self.failed_pids)
        changed = True
        while changed:
            changed = False
            for pid, context in participants.items():
                if pid in excluded_set:
                    continue
                if not context.prev_r.isdisjoint(excluded_set):
                    excluded_set.add(pid)
                    changed = True
        committed = sorted(set(participants) - excluded_set)
        excluded = sorted(
            excluded_set & (set(participants) | {failed_pid})
        )
        initiator.initiating = None
        initiator.weight = 0
        if initiator.protocol.ledger is not None:
            initiator.protocol.ledger.end()
        self.system.sim.trace.record(
            self.system.sim.now,
            "partial_commit",
            trigger=trigger,
            committed=tuple(sorted(committed)),
            excluded=tuple(sorted(excluded)),
            failed=failed_pid,
        )
        exclude = tuple(sorted(excluded))
        initiator.env.broadcast_system(
            "commit", {"trigger": trigger, "exclude": exclude}
        )
        if initiator.pid in exclude:
            initiator._apply_abort(trigger)
        else:
            initiator._apply_commit(trigger)
        initiator.protocol.notify_commit(trigger)

    # ------------------------------------------------------------------
    def restart_process(self, pid: int) -> None:
        """Bring a failed process back (its state must then be rolled
        back by ``DistributedRecovery`` before it resumes)."""
        if pid not in self.failed_pids:
            raise ProtocolError(f"pid {pid} is not failed")
        self.failed_pids.discard(pid)
        process = self.system.processes[pid]
        process.host._process_handlers[pid] = process.on_message
        self.system.sim.trace.record(self.system.sim.now, "restart", pid=pid)
