"""One reading of a trace: capture positions, message pairs, waves.

Every verifier, the forensics and the run statistics decide their
claims from the :class:`~repro.sim.trace.TraceLog` alone.
:class:`TraceIndex` is the one place that knows the trace-kind
vocabulary of :mod:`repro.checkpointing.protocol`; it turns the flat log
into three tables, each filled by one forward pass on first use (a
caller that only needs waves never pays for message pairing). The index
is a plain value over the records present when it was built. Functions
that take a trace also take an index: a caller with several questions
builds one and passes it along.

A flight-recorder log has evicted its oldest per-message records
(lifecycle records are never evicted). What they would have decided is
left *unjudged*: a receive whose send was evicted is not an orphan, a
checkpoint whose dependency basis may have been evicted is not a
protocol bug. On a complete log a receive with no send is an orphan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.checkpointing.types import Trigger
from repro.sim.trace import TraceLog, TraceRecord

#: per-message (DEBUG) record kinds — the only ones a flight recorder evicts
MESSAGE_KINDS = frozenset({"comp_send", "comp_recv", "sys_send", "sys_broadcast"})
#: the ways a wave ends
OUTCOME_KINDS = ("commit", "abort", "partial_commit")
#: from the first of these on, the §3.6/§2.2 paths legitimately alter
#: who checkpoints, so the exact minimality comparison stops there
DISTURBANCE_KINDS = ("failure", "partial_commit", "recovery_started", "disconnect")
#: lifecycle kinds whose first record for a trigger opens its wave
_OPENING_KINDS = frozenset({
    "initiation", "tentative", "mutable", "mutable_promoted",
    "mutable_discarded", "permanent", "commit", "abort",
})
_WAVE_KINDS = _OPENING_KINDS.union(
    DISTURBANCE_KINDS, ("partial_commit", "sys_send", "sys_broadcast")
)

#: a (trace position, record) pair
Positioned = Tuple[int, TraceRecord]


def owner_pid(record: TraceRecord) -> Optional[int]:
    """The process a record belongs to, or None for an unowned record."""
    fields = record.fields
    if "pid" in fields:
        return fields["pid"]
    kind = record.kind
    if kind in ("comp_send", "sys_send", "sys_broadcast"):
        return fields.get("src")
    if kind == "comp_recv":
        return fields.get("dst")
    if kind in OUTCOME_KINDS:
        trigger = fields.get("trigger")
        return trigger.pid if isinstance(trigger, Trigger) else None
    # Mobility-layer records identify the process by its mobile host,
    # named "mh<pid>" by the system builder (one process per MH).
    mh = fields.get("mh")
    if isinstance(mh, str) and mh.startswith("mh") and mh[2:].isdigit():
        return int(mh[2:])
    return None


class Captures(NamedTuple):
    #: ckpt_id -> position of its first mutable/tentative/permanent
    #: record: where the state was captured (promotion re-emits
    #: ``tentative`` for a mutable's id; the ``mutable`` record wins)
    position: Dict[int, int]
    #: pid -> (capture position, trigger, ckpt_id) of its stable
    #: (tentative/permanent) checkpoints, sorted
    stable: Dict[int, List[Tuple[int, Optional[Trigger], int]]]
    #: pid -> ckpt_id of its newest ``permanent`` record: the recovery
    #: line an archived trace describes
    line: Dict[int, int]


class Message(NamedTuple):
    """A computation message; ``send`` / ``recv`` are trace positions,
    None for a send the log does not hold / a message not delivered."""

    msg_id: int
    src: int
    dst: int
    send: Optional[int]
    recv: Optional[int]


class Messages(NamedTuple):
    by_id: Dict[int, Message]  #: in send order
    received: List[Message]  #: in receive order


@dataclass
class Wave:
    """What the trace records about one initiation."""

    trigger: Trigger
    #: None for a wave with no ``initiation`` record (timer rounds)
    initiator: Optional[int] = None
    start_position: Optional[int] = None
    start_time: float = 0.0
    #: every tentative record — Figs. 5-6 count these
    tentative_records: List[Positioned] = field(default_factory=list)
    #: pid -> its first tentative / mutable record
    tentatives: Dict[int, Positioned] = field(default_factory=dict)
    mutables: Dict[int, Positioned] = field(default_factory=dict)
    promoted: Set[int] = field(default_factory=set)
    discarded_mutables: Set[int] = field(default_factory=set)
    permanents: Set[int] = field(default_factory=set)
    #: (position, kind, time) of every commit / abort / partial_commit
    outcomes: List[Tuple[int, str, float]] = field(default_factory=list)
    #: tagged control messages: sys_send / sys_broadcast counts by
    #: subkind, and every tagged sys_send
    control_messages: Dict[str, int] = field(default_factory=dict)
    broadcasts: Dict[str, int] = field(default_factory=dict)
    control_records: List[Positioned] = field(default_factory=list)

    def last_time(self, kind: str) -> Optional[float]:
        """When the wave last recorded outcome ``kind`` (None: never)."""
        times = [time for _, outcome, time in self.outcomes if outcome == kind]
        return times[-1] if times else None


class Waves(NamedTuple):
    by_trigger: Dict[Trigger, Wave]  #: in order of first appearance
    untriggered: List[TraceRecord]  #: tentatives outside any coordination
    disturbed_at: Optional[int]  #: position of the first disturbance


class TraceIndex:
    """The tables of one trace; see the module docstring."""

    def __init__(self, trace: TraceLog) -> None:
        self.records: List[TraceRecord] = list(trace)
        #: DEBUG records the flight recorder dropped before this reading
        self.evicted: int = trace.debug_evicted

    @classmethod
    def of(cls, source: "TraceSource") -> "TraceIndex":
        """``source`` itself if it is an index, else a new index of it."""
        return source if isinstance(source, cls) else cls(source)

    @cached_property
    def first_message(self) -> Optional[int]:
        """Position of the first per-message record (None: INFO-only).

        When records were evicted they all preceded this one: message
        records are complete from here on.
        """
        return next(
            (i for i, r in enumerate(self.records) if r.kind in MESSAGE_KINDS), None
        )

    def retained_since(self, position: int) -> bool:
        """Whether every message record after ``position`` is still here."""
        first = self.first_message
        return not self.evicted or (first is not None and position > first)

    @cached_property
    def captures(self) -> Captures:
        position: Dict[int, int] = {}
        stable: Dict[int, List[Tuple[int, Optional[Trigger], int]]] = {}
        line: Dict[int, int] = {}
        seen_stable: Set[int] = set()
        for index, record in enumerate(self.records):
            kind = record.kind
            if kind not in ("mutable", "tentative", "permanent"):
                continue
            fields = record.fields
            ckpt_id = fields.get("ckpt_id")
            if ckpt_id is None:
                continue
            captured_at = position.setdefault(ckpt_id, index)
            pid = fields.get("pid")
            if kind == "mutable" or pid is None:
                continue  # a mutable is not stable unless promoted
            if ckpt_id not in seen_stable:
                seen_stable.add(ckpt_id)
                stable.setdefault(pid, []).append(
                    (captured_at, fields.get("trigger"), ckpt_id)
                )
            if kind == "permanent":
                line[pid] = ckpt_id
        for entries in stable.values():
            entries.sort()
        return Captures(position, stable, line)

    def cut(self, ckpt_ids: Dict[int, int]) -> Dict[int, int]:
        """pid -> capture position for a line given as pid -> ckpt_id; a
        record before ``cut[pid]`` is recorded in that checkpoint.
        Checkpoints the trace never captured are left out."""
        positions = self.captures.position
        return {
            pid: positions[ckpt_id]
            for pid, ckpt_id in ckpt_ids.items()
            if ckpt_id in positions
        }

    @cached_property
    def messages(self) -> Messages:
        by_id: Dict[int, Message] = {}
        received: List[Message] = []
        new = tuple.__new__  # Message's own __new__ is a Python frame
        for position, record in enumerate(self.records):
            kind = record.kind
            if kind == "comp_send":
                fields = record.fields
                msg_id = fields["msg_id"]
                by_id[msg_id] = new(
                    Message, (msg_id, fields["src"], fields["dst"], position, None)
                )
            elif kind == "comp_recv":
                fields = record.fields
                msg_id = fields["msg_id"]
                sent = by_id.get(msg_id)
                by_id[msg_id] = message = new(Message, (
                    msg_id, fields["src"], fields["dst"],
                    None if sent is None else sent.send, position,
                ))
                received.append(message)
        return Messages(by_id, received)

    @cached_property
    def waves(self) -> Waves:
        by_trigger: Dict[Trigger, Wave] = {}
        untriggered: List[TraceRecord] = []
        disturbed_at: Optional[int] = None
        for position, record in enumerate(self.records):
            kind = record.kind
            if kind not in _WAVE_KINDS:
                continue
            if disturbed_at is None and kind in DISTURBANCE_KINDS:
                disturbed_at = position
            trigger = record.fields.get("trigger")
            if trigger is None:
                if kind == "tentative":
                    untriggered.append(record)
                continue
            wave = by_trigger.get(trigger)
            if wave is None:
                if kind not in _OPENING_KINDS:
                    continue
                wave = by_trigger[trigger] = Wave(trigger)
            if kind == "initiation":
                if wave.initiator is None:
                    wave.initiator = record["pid"]
                    wave.start_position = position
                    wave.start_time = record.time
            elif kind == "tentative":
                wave.tentative_records.append((position, record))
                wave.tentatives.setdefault(record["pid"], (position, record))
            elif kind == "mutable":
                wave.mutables.setdefault(record["pid"], (position, record))
            elif kind == "mutable_promoted":
                wave.promoted.add(record["pid"])
            elif kind == "mutable_discarded":
                wave.discarded_mutables.add(record["pid"])
            elif kind == "permanent":
                wave.permanents.add(record["pid"])
            elif kind in OUTCOME_KINDS:
                wave.outcomes.append((position, kind, record.time))
            elif kind in ("sys_send", "sys_broadcast"):
                counts = (
                    wave.control_messages if kind == "sys_send" else wave.broadcasts
                )
                subkind = record.get("subkind", "?")
                counts[subkind] = counts.get(subkind, 0) + 1
                if kind == "sys_send":
                    wave.control_records.append((position, record))
        return Waves(by_trigger, untriggered, disturbed_at)

    def commits(self) -> List[Tuple[int, Trigger]]:
        """(position, trigger) of every ``commit`` record, in trace order."""
        return sorted(
            (position, wave.trigger)
            for wave in self.waves.by_trigger.values()
            for position, kind, _ in wave.outcomes
            if kind == "commit"
        )


#: what every trace-reading function accepts
TraceSource = Union[TraceLog, TraceIndex]
