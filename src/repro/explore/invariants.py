"""The invariant suite: the paper's safety claims as trace checks.

Every invariant is evaluated against the :class:`~repro.sim.trace.TraceLog`
of a finished run — never against live protocol state — so the same
checks work on archived counterexample traces. Where an independent
checker already exists in :mod:`repro.analysis` it is reused directly.

Catalogue
---------
``recovery-line-consistency``
    The committed recovery line (last permanent checkpoint per process)
    contains no orphan message — Theorem 1/2, via
    :func:`repro.analysis.offline.verify_archived_trace`.
``min-process-minimality``
    Every committed initiation checkpointed exactly the z-dependency
    closure — Theorem 3, via :func:`repro.analysis.minimality`. Skipped
    for commits after the first failure/recovery/disconnection record:
    those legitimately alter the participant set (§3.6 resolves the
    coordination early; proxies checkpoint on a disconnected host's
    behalf from older state), so the closure comparison is only exact on
    the undisturbed prefix.
``no-avalanche``
    No initiation forces a process into more than one new checkpoint,
    and no checkpoint is taken outside a coordination (§3.1.1's
    avalanche is exactly uncoordinated induced checkpoints cascading).
``fifo-channel-order``
    Per (src, dst) pair, computation messages are received in send
    order (§2.1 reliable FIFO). Losses are allowed (failures and
    rollbacks legitimately drop messages); reordering is not. Pairs
    touching a host that handed off or disconnected are skipped: the
    reroute path is a different physical route, where the FIFO
    assumption genuinely does not hold end-to-end.
``coordination-termination``
    Every traced ``initiation`` reaches a ``commit``, ``abort``, or
    ``partial_commit`` for its trigger (Lemma 2 / §3.4 termination).
    Evaluated after the run has fully quiesced.
``incarnation-hygiene``
    Incarnation numbers only grow, and no process accepts (records a
    ``comp_recv`` for) a message sent in a rolled-back part of the past
    after it has itself rolled past that incarnation — the ghost-message
    defence actually held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.minimality import must_checkpoint_set
from repro.analysis.offline import verify_archived_trace
from repro.analysis.trace_index import TraceIndex, TraceSource, owner_pid
from repro.errors import ConfigurationError, InconsistentCheckpointError


@dataclass
class Violation:
    """One invariant violation found in a trace."""

    invariant: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "details": {k: repr(v) for k, v in self.details.items()},
        }

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


class Invariant:
    """A named safety property checked against a finished trace."""

    name = "invariant"

    def check(self, trace: TraceSource) -> List[Violation]:
        raise NotImplementedError

    def violation(self, message: str, **details: Any) -> Violation:
        return Violation(invariant=self.name, message=message, details=details)


class RecoveryLineConsistency(Invariant):
    """No orphan messages across the committed recovery line."""

    name = "recovery-line-consistency"

    def check(self, trace: TraceSource) -> List[Violation]:
        try:
            verdict = verify_archived_trace(trace)
        except InconsistentCheckpointError:
            return []  # no permanent checkpoints yet: nothing to verify
        return [
            self.violation(
                f"orphan message {orphan.msg_id} {orphan.src}->{orphan.dst}: "
                "receive is inside the recovery line, send is not",
                msg_id=orphan.msg_id,
                src=orphan.src,
                dst=orphan.dst,
            )
            for orphan in verdict.orphans
        ]


class MinProcessMinimality(Invariant):
    """Committed initiations checkpoint exactly the z-closure (Thm. 3)."""

    name = "min-process-minimality"

    def check(self, trace: TraceSource) -> List[Violation]:
        index = TraceIndex.of(trace)
        disturbed_at = index.waves.disturbed_at
        violations: List[Violation] = []
        for position, trigger in index.commits():
            if disturbed_at is not None and position > disturbed_at:
                continue  # §3.6/§2.2 paths legitimately alter the set
            report = must_checkpoint_set(index, trigger)
            if report.missing:
                violations.append(
                    self.violation(
                        f"initiation {trigger} committed without "
                        f"required processes {sorted(report.missing)}",
                        trigger=trigger,
                        missing=sorted(report.missing),
                    )
                )
            if report.unjustified:
                # excess vs. the *exact* closure is tolerated: the
                # protocol's R-bit/csn knowledge legitimately
                # over-approximates (see MinimalityReport.unjustified);
                # a participant with no dependency basis at all is not.
                violations.append(
                    self.violation(
                        f"initiation {trigger} checkpointed "
                        f"processes {sorted(report.unjustified)} with no "
                        "dependency basis",
                        trigger=trigger,
                        unjustified=sorted(report.unjustified),
                    )
                )
        return violations


class NoAvalanche(Invariant):
    """At most one new checkpoint per process per initiation.

    A checkpoint with no trigger (a unilateral one, as the timer-based,
    uncoordinated and csn schemes take) is itself a violation: the
    min-process protocols explore targets never take one.
    """

    name = "no-avalanche"

    def check(self, trace: TraceSource) -> List[Violation]:
        waves = TraceIndex.of(trace).waves
        violations = [
            self.violation(
                f"process {record['pid']} took an uncoordinated (induced) "
                "checkpoint — avalanche engine",
                pid=record["pid"],
                ckpt_id=record.get("ckpt_id"),
            )
            for record in waves.untriggered
        ]
        per_trigger: Dict[Tuple[Any, int], Set[int]] = {}
        for trigger, wave in waves.by_trigger.items():
            for _, record in wave.tentative_records:
                ids = per_trigger.setdefault((trigger, record["pid"]), set())
                ckpt_id = record.get("ckpt_id")
                if ckpt_id is not None:
                    ids.add(ckpt_id)
        for (trigger, pid), ids in sorted(
            per_trigger.items(), key=lambda item: (repr(item[0][0]), item[0][1])
        ):
            if len(ids) > 1:
                violations.append(
                    self.violation(
                        f"initiation {trigger} forced {len(ids)} checkpoints "
                        f"at process {pid} (avalanche)",
                        trigger=trigger,
                        pid=pid,
                        ckpt_ids=sorted(ids),
                    )
                )
        return violations


class FifoChannelOrder(Invariant):
    """Receives per (src, dst) pair happen in send order (§2.1)."""

    name = "fifo-channel-order"

    def check(self, trace: TraceSource) -> List[Violation]:
        index = TraceIndex.of(trace)
        # Pids whose host left its original route: the reroute path is a
        # different physical route, end-to-end FIFO is not modeled there.
        rerouted = {
            owner_pid(record)
            for record in index.records
            if record.kind in ("handoff_start", "disconnect")
        }
        sent: Dict[Tuple[int, int], int] = {}
        send_order: Dict[int, int] = {}  # msg_id -> ordinal on its channel
        for message in index.messages.by_id.values():
            if message.send is not None:
                pair = (message.src, message.dst)
                send_order[message.msg_id] = sent[pair] = sent.get(pair, -1) + 1
        last_received: Dict[Tuple[int, int], Tuple[int, int]] = {}
        violations: List[Violation] = []
        for message in index.messages.received:
            pair = (message.src, message.dst)
            if pair[0] in rerouted or pair[1] in rerouted:
                continue
            position = send_order.get(message.msg_id)
            if position is None:
                continue  # send not traced (pre-trace or system path)
            previous = last_received.get(pair)
            if previous is not None and position < previous[0]:
                violations.append(
                    self.violation(
                        f"channel {pair[0]}->{pair[1]} delivered message "
                        f"{message.msg_id} (send #{position}) after "
                        f"message {previous[1]} (send #{previous[0]})",
                        src=pair[0],
                        dst=pair[1],
                        msg_id=message.msg_id,
                        after_msg_id=previous[1],
                    )
                )
            if previous is None or position > previous[0]:
                last_received[pair] = (position, message.msg_id)
        return violations


class CoordinationTermination(Invariant):
    """Every initiation commits, aborts, or partially commits."""

    name = "coordination-termination"

    def check(self, trace: TraceSource) -> List[Violation]:
        return [
            self.violation(
                f"initiation {trigger} by process {wave.initiator} never "
                "terminated (no commit/abort after quiescence)",
                trigger=trigger,
                pid=wave.initiator,
            )
            for trigger, wave in TraceIndex.of(trace).waves.by_trigger.items()
            if wave.initiator is not None and not wave.outcomes
        ]


class IncarnationHygiene(Invariant):
    """Incarnations only grow and ghost messages stay dead."""

    name = "incarnation-hygiene"

    def check(self, trace: TraceSource) -> List[Violation]:
        index = TraceIndex.of(trace)
        violations: List[Violation] = []
        last_incarnation: Dict[int, int] = {}
        # Dead-send windows: for each rollback of pid to ckpt_id, sends
        # by pid between the restored checkpoint's capture and the
        # rollback are undone. A receiver that records such a message
        # *after* its own rollback for the same incarnation accepted a
        # ghost the incarnation check should have dropped.
        dead_windows: List[Tuple[int, int, int, int]] = []  # (pid, lo, hi, inc)
        rollback_pos: Dict[Tuple[int, int], int] = {}
        for position, record in enumerate(index.records):
            if record.kind != "rolled_back":
                continue
            pid = record["pid"]
            incarnation = record["incarnation"]
            previous = last_incarnation.get(pid, 0)
            if incarnation <= previous:
                violations.append(
                    self.violation(
                        f"process {pid} adopted incarnation {incarnation} "
                        f"after already being at {previous}",
                        pid=pid,
                        incarnation=incarnation,
                    )
                )
            last_incarnation[pid] = incarnation
            rollback_pos[(pid, incarnation)] = position
            lo = index.captures.position.get(record.get("ckpt_id"))
            if lo is not None:
                dead_windows.append((pid, lo, position, incarnation))
        if not dead_windows:
            return violations

        for message in index.messages.received:
            if message.send is None:
                continue
            for pid, lo, hi, incarnation in dead_windows:
                if message.src != pid or not (lo < message.send < hi):
                    continue
                receiver_rolled = rollback_pos.get((message.dst, incarnation))
                if receiver_rolled is not None and message.recv > receiver_rolled:
                    violations.append(
                        self.violation(
                            f"process {message.dst} accepted ghost "
                            f"message {message.msg_id} from rolled-back "
                            f"incarnation {incarnation - 1} of process "
                            f"{message.src}",
                            msg_id=message.msg_id,
                            src=message.src,
                            dst=message.dst,
                            incarnation=incarnation,
                        )
                    )
        return violations


#: the default suite, in evaluation order
DEFAULT_INVARIANTS: Tuple[Invariant, ...] = (
    RecoveryLineConsistency(),
    MinProcessMinimality(),
    NoAvalanche(),
    FifoChannelOrder(),
    CoordinationTermination(),
    IncarnationHygiene(),
)

#: name -> factory, for spec-driven selection
INVARIANT_FACTORIES = {
    RecoveryLineConsistency.name: RecoveryLineConsistency,
    MinProcessMinimality.name: MinProcessMinimality,
    NoAvalanche.name: NoAvalanche,
    FifoChannelOrder.name: FifoChannelOrder,
    CoordinationTermination.name: CoordinationTermination,
    IncarnationHygiene.name: IncarnationHygiene,
}


def build_invariants(names: Optional[Sequence[str]] = None) -> Tuple[Invariant, ...]:
    """The invariant suite for ``names`` (default: the full catalogue)."""
    if names is None:
        return DEFAULT_INVARIANTS
    suite = []
    for name in names:
        factory = INVARIANT_FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown invariant {name!r}; "
                f"available: {', '.join(sorted(INVARIANT_FACTORIES))}"
            )
        suite.append(factory())
    return tuple(suite)


def check_invariants(
    trace: TraceSource,
    invariants: Optional[Sequence[Invariant]] = None,
) -> List[Violation]:
    """Run the suite against ``trace`` and collect every violation.

    One :class:`~repro.analysis.trace_index.TraceIndex` serves the whole
    suite, so the cost is one reading of the trace however many
    initiations it holds.
    """
    index = TraceIndex.of(trace)
    violations: List[Violation] = []
    for invariant in invariants if invariants is not None else DEFAULT_INVARIANTS:
        violations.extend(invariant.check(index))
    return violations
