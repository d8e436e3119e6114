"""Structured trace log for simulation runs.

Every interesting occurrence — message send/receive, checkpoint taken,
commit, handoff — is appended to a :class:`TraceLog` as a
:class:`TraceRecord`. The log is the ground truth used by the
verification layer (:mod:`repro.analysis.consistency`): the consistency
checkers never look at protocol state, only at the trace, so they are
independent witnesses of protocol correctness.

Tracing is leveled. Protocol lifecycle records (initiations, tentative
checkpoints, commits, aborts) are **INFO** and always kept while the log
is on — results collection and the consistency checkers depend on them.
Per-message records (``comp_send``, ``sys_send``, ...) are **DEBUG**:
they dominate trace volume, so hot-path emitters check the
:attr:`TraceLog.debug_on` flag *before* building the record and skip all
work when message tracing is off. ``explore`` and message-level analyses
run at DEBUG for full fidelity; throughput runs stay at INFO.

Flight recorder
---------------
Long runs that still need message fidelity *around interesting moments*
can bound DEBUG memory with ``debug_capacity``: INFO records are kept in
full (analysis depends on them) while DEBUG records go into a ring
buffer holding only the most recent ``debug_capacity`` entries — O(1)
memory however long the run. Iteration, queries, and
:meth:`content_hash` transparently present the merged (INFO + retained
DEBUG) view in recording order. Dump-on-demand is just
:func:`repro.sim.export.save_trace` on the log; subscribers (e.g. the
streaming :class:`~repro.sim.export.JsonlTraceSink`) still see *every*
record before eviction, so full fidelity can stream to disk while the
in-memory window stays bounded.
"""

from __future__ import annotations

import hashlib
from collections import deque
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)


class TraceLevel:
    """Trace verbosity thresholds (lower is chattier).

    * ``DEBUG`` — per-message records; bulk of trace volume.
    * ``INFO`` — protocol lifecycle records; required by analysis.
    * ``OFF`` — nothing is recorded at all.
    """

    DEBUG = 10
    INFO = 20
    OFF = 100


class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Simulated time at which the event occurred.
    kind:
        A short string tag, e.g. ``"comp_send"`` or ``"checkpoint"``.
        The set of kinds in use is documented by the emitting modules.
    fields:
        Event-specific payload. Keys are defined per kind by the emitter.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(
        self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None
    ) -> None:
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time, self.kind, self.fields) == (
            other.time, other.kind, other.fields
        )

    def __repr__(self) -> str:
        time, kind, fields = self.time, self.kind, self.fields
        return f"TraceRecord({time=!r}, {kind=!r}, {fields=!r})"

    def __setstate__(self, state: Any) -> None:
        # (None, slots) from this class; the __dict__ of the dataclass this
        # was, from a snapshot written then
        TraceRecord.__init__(self, **(state[1] if isinstance(state, tuple) else state))


class TraceLog:
    """An append-only list of :class:`TraceRecord` with query helpers.

    Parameters
    ----------
    level:
        Records below this level are skipped. The default ``DEBUG``
        keeps everything; ``TraceLevel.OFF`` records nothing.
    debug_capacity:
        Flight-recorder mode: retain at most this many DEBUG records (a
        ring buffer of the most recent ones). INFO records are always
        kept in full. ``None`` (the default) retains everything.
    """

    def __init__(
        self,
        level: int = TraceLevel.DEBUG,
        debug_capacity: Optional[int] = None,
    ) -> None:
        if debug_capacity is not None and debug_capacity < 1:
            raise ValueError(
                f"debug_capacity must be >= 1 (or None), got {debug_capacity}"
            )
        self._records: List[TraceRecord] = []
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        # Flight-recorder state. In normal mode (_debug_ring is None)
        # everything lives in _records and the sequence bookkeeping is
        # dormant; in flight mode _records holds INFO only, the ring
        # holds (seq, record) for the newest DEBUG entries, and _info_seq
        # parallels _records so iteration can merge the two by seq.
        self._seq = 0
        self._info_seq: List[int] = []
        self._debug_ring: Optional[Deque[Tuple[int, TraceRecord]]] = (
            deque(maxlen=debug_capacity) if debug_capacity is not None else None
        )
        self.debug_capacity = debug_capacity
        #: DEBUG records dropped from the ring so far (0 in normal mode)
        self.debug_evicted = 0
        self.set_level(level)

    # -- level management --------------------------------------------------
    @property
    def level(self) -> int:
        return self._level

    def set_level(self, level: int) -> None:
        """Set the verbosity and refresh the hot-path fast flags."""
        self._level = level
        # Emitters read these plain bools instead of comparing levels, so
        # a trace-off (or INFO) run skips record/field construction with
        # a single attribute load.
        self.debug_on = level <= TraceLevel.DEBUG
        self.info_on = level <= TraceLevel.INFO

    @property
    def debug_held(self) -> int:
        """DEBUG records currently retained in the flight-recorder ring.

        In normal (unbounded) mode this is 0 — DEBUG records live in the
        main list and are not tracked separately.
        """
        return len(self._debug_ring) if self._debug_ring is not None else 0

    # -- recording ---------------------------------------------------------
    def __len__(self) -> int:
        if self._debug_ring is None:
            return len(self._records)
        return len(self._records) + len(self._debug_ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._debug_ring is None:
            return iter(self._records)
        return iter(self._merged())

    def _merged(self) -> List[TraceRecord]:
        """INFO + retained DEBUG records, in recording order (flight mode)."""
        assert self._debug_ring is not None
        merged: List[Tuple[int, TraceRecord]] = list(self._debug_ring)
        merged.extend(zip(self._info_seq, self._records))
        merged.sort(key=lambda pair: pair[0])
        return [record for _, record in merged]

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append an INFO-level record (no-op when the log is off)."""
        if not self.info_on:
            return
        rec = TraceRecord(time, kind, fields)
        self._records.append(rec)
        if self._debug_ring is not None:
            self._info_seq.append(self._seq)
            self._seq += 1
        for subscriber in self._subscribers:
            subscriber(rec)

    def debug(self, time: float, kind: str, **fields: Any) -> None:
        """Append a DEBUG-level record.

        Hot-path emitters should guard the *call itself* with
        :attr:`debug_on` so the record kwargs are never even built when
        message tracing is off; this method re-checks only as a safety
        net for unguarded callers.
        """
        if not self.debug_on:
            return
        rec = TraceRecord(time, kind, fields)
        ring = self._debug_ring
        if ring is None:
            self._records.append(rec)
        else:
            if len(ring) == ring.maxlen:
                self.debug_evicted += 1
            ring.append((self._seq, rec))
            self._seq += 1
        for subscriber in self._subscribers:
            subscriber(rec)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append built records (an archive re-read into a full log): no
        level check, no subscriber call."""
        self._records.extend(records)

    def release_flight_recorder(self) -> None:
        """Leave flight-recorder mode: retain every record from now on.

        Records currently held (all INFO plus the surviving DEBUG tail)
        are folded into the unbounded list in recording order; already
        evicted ones are gone. Time-travel replay uses this after a
        snapshot restore — a replay exists precisely to regenerate the
        records an original bounded ring would evict.
        """
        if self._debug_ring is not None:
            self._records = self._merged()
            self._debug_ring = None
            self._info_seq = []
        self.debug_capacity = None

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: records and counters travel, subscribers
        (output sinks such as ``JsonlTraceSink``) don't; their owners
        re-subscribe them."""
        state = self.__dict__.copy()
        state["_subscribers"] = []
        return state

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` (an output sink) for every later entry.

        Subscribers see every record at recording time — in flight-
        recorder mode that includes DEBUG records later evicted from the
        ring, which is how a streaming sink preserves full fidelity.
        """
        self._subscribers.append(callback)

    # -- queries -----------------------------------------------------------
    def where(self, kind: Optional[str] = None, **conditions: Any) -> List[TraceRecord]:
        """Records matching a kind and exact field values."""
        out = []
        for r in self:
            if kind is not None and r.kind != kind:
                continue
            if all(r.fields.get(k) == v for k, v in conditions.items()):
                out.append(r)
        return out

    def count(self, kind: str, **conditions: Any) -> int:
        """Number of records matching ``kind`` and field conditions."""
        return len(self.where(kind, **conditions))

    def last(self, kind: str) -> Optional[TraceRecord]:
        """The most recent record of ``kind``, or None."""
        view = self._records if self._debug_ring is None else self._merged()
        for r in reversed(view):
            if r.kind == kind:
                return r
        return None

    def content_hash(self) -> str:
        """SHA-256 over a canonical rendering of every record.

        Two logs hash equal iff they hold the same records in the same
        order (fields compared by sorted key) — the determinism tests'
        byte-level witness that two runs traced identically.
        """
        digest = hashlib.sha256()
        #: field names -> the line's % format and what picks the values in
        #: sorted name order (None: in it); names not all str are not kept
        formats: Dict[Tuple[Any, ...], Tuple[str, Any]] = {}
        lines: List[str] = []
        for r in self:
            fields = r.fields
            keys = tuple(fields)
            entry = formats.get(keys)
            if entry is None:
                order = sorted(keys)
                body = ",".join([f"{k}".replace("%", "%%") + "=%r" for k in order])
                pick = itemgetter(*order) if order != list(keys) else None
                entry = ("%r|%s|" + body + "\n", pick)
                if all(type(k) is str for k in keys):
                    formats[keys] = entry
            line, pick = entry
            lines.append(line % (r.time, r.kind, *(pick(fields) if pick else fields.values())))
            if len(lines) == 4096:  # one digest update per chunk, not per record
                digest.update("".join(lines).encode())
                lines.clear()
        digest.update("".join(lines).encode())
        return digest.hexdigest()
