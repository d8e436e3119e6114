"""Trace export / import as JSON lines.

A run's trace log is its ground truth; exporting it lets experiments be
archived, diffed across code versions, and re-verified offline (the
consistency and minimality checkers run on imported traces unchanged).

Triggers and checkpoint kinds are encoded as tagged objects so a round
trip preserves the types the checkers rely on. Long integer tuples
(rollback pid sets and other per-process vectors, which grow with the
population) are stored as ``[start, count]`` runs when that is smaller;
decoding reconstructs the exact tuple, so archived traces hash the same
regardless of population size. What does not come back as it went (and
no emitter records: every container one records is a tuple): a
``frozenset`` returns a ``set``, an int-keyed ``dict`` str-keyed and a
``set`` in whatever iteration order, so that log re-reads with another
``content_hash``.

Two export paths exist:

* :func:`dump_trace` / :func:`save_trace` — offline, after the run; in
  flight-recorder mode this dumps the merged INFO + retained-DEBUG view.
* :class:`JsonlTraceSink` — online: subscribed to a live
  :class:`~repro.sim.trace.TraceLog`, it streams every record to a file
  as it is recorded, so a bounded flight-recorder log can still leave a
  full-fidelity archive on disk.

The bytes are a pinned format (``explore`` digests them). Encoding and
decoding work on blocks of lines; a bad line is still named by number.
"""

from __future__ import annotations

import io
import json
from itertools import islice
from math import isfinite
from typing import IO, Any, Iterable, List, Optional, Union

from repro.checkpointing.types import Trigger
from repro.errors import TraceFormatError
from repro.sim.trace import TraceLog, TraceRecord


#: int tuples at least this long are considered for run-length encoding
_COMPACT_MIN = 16
#: records encoded per write, lines parsed per ``json.loads``
_BLOCK = 2048


def _int_runs(values: tuple) -> list:
    """``values`` as ``[start, count]`` runs of consecutive integers."""
    runs = []
    start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append([start, prev - start + 1])
        start = prev = v
    runs.append([start, prev - start + 1])
    return runs


def _encode_value(value: Any) -> Any:
    if isinstance(value, Trigger):
        return {"__trigger__": [value.pid, value.inum]}
    if isinstance(value, tuple):
        # Long integer tuples (rollback pid sets, per-process vectors)
        # dominate record size at 1k+ processes; mostly-consecutive
        # ones are stored as [start, count] runs instead. Only applied
        # when it actually wins, so scattered tuples stay plain.
        if len(value) >= _COMPACT_MIN and all(type(v) is int for v in value):
            runs = _int_runs(value)
            if 2 * len(runs) < len(value):
                return {"__iruns__": runs}
        return {"__tuple__": [_encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        members = [_encode_value(v) for v in value]
        try:
            return {"__set__": sorted(members)}
        except TypeError:  # tagged members are dicts: order them by their text
            return {"__set__": sorted(members, key=_encode)}
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__trigger__" in value:
            pid, inum = value["__trigger__"]
            return Trigger(pid, inum)
        if "__tuple__" in value:
            return tuple(_decode_value(v) for v in value["__tuple__"])
        if "__iruns__" in value:
            out: list = []
            for start, count in value["__iruns__"]:
                out.extend(range(start, start + count))
            return tuple(out)
        if "__set__" in value:
            return set(_decode_value(v) for v in value["__set__"])
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


_quote = json.encoder.encode_basestring_ascii
_encode = json.JSONEncoder(separators=(",", ":")).encode
#: The JSON text of a scalar, as ``_encode`` writes it. Nearly every
#: field value is one, and ``_encode`` builds an encoder per call.
_SCALAR_TEXT = {
    int: int.__repr__,
    str: _quote,
    float: lambda value: repr(value) if isfinite(value) else _encode(value),
    bool: lambda value: "true" if value else "false",
    type(None): lambda _: "null",
}


def _text(value: Any) -> str:
    scalar = _SCALAR_TEXT.get(type(value))
    return scalar(value) if scalar else _encode(_encode_value(value))


def _record_line(record: TraceRecord) -> str:
    fields = ",".join([_quote(k) + ":" + _text(v) for k, v in record.fields.items()])
    head = '{"t":' + _text(record.time) + ',"k":' + _text(record.kind)
    return head + ',"f":{' + fields + "}}"


def dump_trace(trace: Iterable[TraceRecord], stream: IO[str]) -> int:
    """Write the trace as JSON lines; returns the record count."""
    count = 0
    records = iter(trace)
    while block := list(map(_record_line, islice(records, _BLOCK))):
        stream.write("\n".join(block) + "\n")
        count += len(block)
    return count


def dumps_trace(trace: Iterable[TraceRecord]) -> str:
    """The trace as one JSON-lines string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


#: what a line that is not a record raises: not JSON, not an object, a
#: key missing, or a malformed tag
_NOT_A_RECORD = (ValueError, LookupError, TypeError, AttributeError)
_CONTAINERS = frozenset((dict, list))
#: ``TraceLog.record``'s own parameters, which no field can be named after
_RECORD_ARGS = frozenset(("self", "time", "kind"))


def _record(row: Any) -> TraceRecord:
    fields = row["f"]
    if not _RECORD_ARGS.isdisjoint(fields):
        raise TypeError("a field named like a parameter of TraceLog.record")
    if not _CONTAINERS.isdisjoint(map(type, fields.values())):
        fields = {key: _decode_value(val) for key, val in fields.items()}
    return TraceRecord(row["t"], row["k"], fields)


def _parse_block(lines: List[str]) -> List[TraceRecord]:
    """The records of ``lines`` from one ``json.loads``; raises unless
    every line is provably a JSON value of its own.

    One row per line is not proof: a record cut in two by a line break
    can hide behind a line holding two. The joint's raw newline ends any
    string, a line starting with ``{`` cannot resume an object, and the
    few lines with a ``[`` in them (a tuple, a set) parse alone as well,
    so no array is left open across a break either.
    """
    text = ",\n".join(lines)
    rows = json.loads(f"[{text}]")
    if len(rows) != len(lines) or text.count("\n{") + text.startswith("{") != len(rows):
        raise ValueError("lines and values do not pair up")
    for line in lines:
        if "[" in line:
            json.loads(line)
    return list(map(_record, rows))


def load_trace(stream: Union[IO[str], str]) -> TraceLog:
    """Read a JSON-lines trace back into a :class:`TraceLog`.

    Raises :class:`~repro.errors.TraceFormatError` naming ``file:line``
    for a line that is not a ``{"t", "k", "f"}`` record.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    name = getattr(stream, "name", "<trace>")
    records: List[TraceRecord] = []
    source = iter(stream)
    read = 0
    while raw := list(islice(source, _BLOCK)):
        try:
            records.extend(_parse_block([line for line in map(str.strip, raw) if line]))
        except _NOT_A_RECORD:
            # one line at a time, to name the first bad one (or find none)
            for number, line in enumerate(raw, read + 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(_record(json.loads(line)))
                except _NOT_A_RECORD:
                    where = f"{name}:{number}"
                    raise TraceFormatError(f"{where}: not a trace record") from None
        read += len(raw)
    log = TraceLog()
    log.extend(records)
    return log


class JsonlTraceSink:
    """A streaming JSONL sink for a live :class:`TraceLog`.

    Subscribe it (``sink.attach(trace)``) and every subsequently recorded
    record — including DEBUG records a flight-recorder ring later evicts
    — is written to the file immediately, in the same tagged encoding
    :func:`dump_trace` uses, so :func:`read_trace` reads it back
    unchanged. Use as a context manager::

        with JsonlTraceSink("run.trace.jsonl") as sink:
            sink.attach(system.sim.trace)
            runner.run()
        print(sink.records_written)
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.records_written = 0
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def __call__(self, record: TraceRecord) -> None:
        if self._handle is None:
            raise ValueError(f"sink {self.path} is closed")
        self._handle.write(_record_line(record) + "\n")
        self.records_written += 1

    def attach(self, trace: TraceLog) -> "JsonlTraceSink":
        """Subscribe this sink to ``trace`` and return self."""
        trace.subscribe(self)
        return self

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def save_trace(trace: Iterable[TraceRecord], path: str) -> int:
    """Write the trace to a file; returns the record count."""
    with open(path, "w", encoding="utf-8") as handle:
        return dump_trace(trace, handle)


def read_trace(path: str) -> TraceLog:
    """Read a trace file back into a :class:`TraceLog`."""
    with open(path, "r", encoding="utf-8") as handle:
        return load_trace(handle)
