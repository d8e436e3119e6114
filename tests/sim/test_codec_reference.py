"""The block-wise trace codec against the per-record one it replaced.

``repro.sim.export`` encodes scalars by hand, writes and parses 2 048
lines at a time and appends built records to the log; ``content_hash``
renders in chunks. The per-record implementations they replaced are kept
here verbatim as references. Every trace below must give the same bytes,
the same records and the same hash through both, and every malformed
file the same ``name:line`` (or be accepted by both).
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.types import Trigger
from repro.errors import TraceFormatError
from repro.sim.export import (
    _BLOCK,
    JsonlTraceSink,
    _decode_value,
    _encode_value,
    dumps_trace,
    load_trace,
    read_trace,
    save_trace,
)
from repro.sim.trace import TraceLog, TraceRecord

from tests.sim.test_export import debug_trace, flight_trace, sample_trace


# -- the per-record codec, as it was ---------------------------------------------
def reference_record_line(record: TraceRecord) -> str:
    line = {
        "t": record.time,
        "k": record.kind,
        "f": {key: _encode_value(val) for key, val in record.fields.items()},
    }
    return json.dumps(line, separators=(",", ":"))


def reference_dumps(trace) -> str:
    return "".join(reference_record_line(record) + "\n" for record in trace)


def reference_load_trace(stream) -> TraceLog:
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    name = getattr(stream, "name", "<trace>")
    log = TraceLog()
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            fields = {key: _decode_value(val) for key, val in data["f"].items()}
            log.record(data["t"], data["k"], **fields)
        except (ValueError, LookupError, TypeError, AttributeError):
            # not JSON, not an object, a key missing, or a malformed tag
            raise TraceFormatError(f"{name}:{number}: not a trace record") from None
    return log


def reference_content_hash(trace) -> str:
    digest = hashlib.sha256()
    for r in trace:
        fields = ",".join(
            f"{k}={r.fields[k]!r}" for k in sorted(r.fields)
        )
        digest.update(f"{r.time!r}|{r.kind}|{fields}\n".encode())
    return digest.hexdigest()


# -- well-formed traces ---------------------------------------------------------
def _debug_runtime(**system_params):
    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 1.0},
        system_params={"n_processes": 16, "trace_messages": True, **system_params},
        run_params={"max_initiations": 2}, seed=11,
    ))
    return system, runner


def _debug_run(**system_params) -> TraceLog:
    system, runner = _debug_runtime(**system_params)
    runner.run()
    return system.sim.trace


def _scalars() -> TraceLog:
    """Every scalar the hand formatter writes, at its edges."""
    log = TraceLog()
    log.record(0, "ints", zero=0, neg=-7, big=2**70, flag=True, off=False, none=None)
    log.record(1e-7, "floats", tiny=5e-324, huge=1.7976931348623157e308, third=1 / 3,
               exp=1e16, negzero=-0.0, inf=math.inf, ninf=-math.inf, nan=math.nan)
    log.record(2.5, 'quote"d\\kind', text='tab\t nl\n "q" \\ \x00 \x7f é   \U0001f600',
               empty="", **{"ké y": 1, 'k"q': 2})
    log.record(3.0, "nested", items=[1, [2.5, None], {"a": (1, 2)}], table={"x": {"y": True}},
               members={3, 1, 2}, words={"b", "a"}, runs=tuple(range(40)), none=())
    return log


def _export_cases():
    """The traces of ``tests/sim/test_export.py``, by name."""
    long_pids, gappy, scattered, floats = TraceLog(), TraceLog(), TraceLog(), TraceLog()
    long_pids.record(5.0, "rollback", pids=tuple(range(256)), lost_messages=3)
    gappy.record(1.0, "rollback", lost_messages=0,
                 pids=tuple(range(0, 40)) + tuple(range(50, 90)) + (200,))
    scattered.record(1.0, "weights", outstanding=tuple(i * 7 % 251 for i in range(32)))
    floats.record(0.0, "partial_commit", committed=(1, 2), excluded=(3,),
                  trigger=Trigger(0, 1), failed=3)
    floats.record(1.0, "weights", outstanding=tuple(0.5 for _ in range(32)))
    return {
        "sample": sample_trace(), "debug": debug_trace(), "flight-3": flight_trace(3),
        "long-pids": long_pids, "gappy-pids": gappy, "scattered": scattered,
        "float-tuples": floats, "empty": TraceLog(), "scalars": _scalars(),
    }


TRACES = {
    "16p-debug-run": _debug_run,
    "16p-flight-recorder-merged": lambda: _debug_run(trace_debug_capacity=5000),
    **{name: (lambda log=log: log) for name, log in _export_cases().items()},
}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_both_codecs_agree_on_a_well_formed_trace(name, tmp_path):
    trace = TRACES[name]()
    if name == "16p-debug-run":
        assert len(trace) > 2 * _BLOCK, "must span at least three blocks"
    if name == "16p-flight-recorder-merged":
        assert trace.debug_evicted > 0 and len(trace) > 2 * _BLOCK
    text = dumps_trace(trace)
    assert text == reference_dumps(trace)
    path = str(tmp_path / "saved.jsonl")
    assert save_trace(trace, path) == len(trace)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == text

    live_hash = trace.content_hash()
    assert live_hash == reference_content_hash(trace)
    if name == "scalars":  # nan != nan, so compare by what was read, as text
        assert dumps_trace(load_trace(text)) == text
        return
    loaded, reference = read_trace(path), reference_load_trace(text)
    assert list(loaded) == list(reference) == list(trace)
    assert [type(v) for r in loaded for v in r.fields.values()] == [
        type(v) for r in trace for v in r.fields.values()
    ]
    assert loaded.content_hash() == reference_content_hash(reference) == live_hash


def test_the_streaming_sink_writes_what_save_trace_writes(tmp_path):
    streamed, saved = str(tmp_path / "streamed.jsonl"), str(tmp_path / "saved.jsonl")
    system, runner = _debug_runtime()
    before = len(system.sim.trace)  # the initial checkpoints, recorded by the build
    with JsonlTraceSink(streamed) as sink:
        sink.attach(system.sim.trace)
        runner.run()
    assert sink.records_written > 2 * _BLOCK
    assert save_trace(system.sim.trace, saved) == before + sink.records_written
    with open(streamed, encoding="utf-8") as a, open(saved, encoding="utf-8") as b:
        assert a.read() == "".join(b.readlines()[before:])


def test_one_record_round_trips():
    log = TraceLog()
    log.record(1.0, "commit", trigger=Trigger(0, 1))
    text = dumps_trace(log)
    assert text == '{"t":1.0,"k":"commit","f":{"trigger":{"__trigger__":[0,1]}}}\n'
    assert list(load_trace(text)) == list(log)
    assert len(load_trace("")) == 0 and dumps_trace(TraceLog()) == ""


# -- malformed and unusual files ---------------------------------------------------
def _line(i: int) -> str:
    return json.dumps({"t": float(i), "k": "comp_send", "f": {"src": 0, "msg_id": i}},
                      separators=(",", ":"))


def _lines(count: int = 2 * _BLOCK + 10):
    return [_line(i) for i in range(count)]


def _with(index: int, text: str, count: int = 2 * _BLOCK + 10) -> str:
    lines = _lines(count)
    lines[index] = text
    return "\n".join(lines) + "\n"


_TWO = _line(1) + "," + _line(2)
#: a record cut at a comma inside an array ...
_HEAD, _TAIL = '{"t":1.0,"k":"a","f":{"z":[{"b":1}', '{"c":2}]}}'
#: ... and one cut between two members of its object
_OBJECT_HEAD, _OBJECT_TAIL = '{"t":1.0,"k":"a"', '"f":{}}'

FILES = {
    "bad-json-line-1": _with(0, "{not json"),
    "bad-json-last-line-of-block-1": _with(_BLOCK - 1, '{"t":1,"k":'),
    "bad-json-first-line-of-block-2": _with(_BLOCK, "}"),
    "bad-json-last-line": _with(-1, "nope"),
    "truncated-final-line": "\n".join(_lines(50)) + "\n" + _line(50)[:-9],
    "two-records-on-one-line": _with(7, _TWO),
    "two-records-on-one-line-spaced": _with(7, _line(1) + " , " + _line(2)),
    "bare-1,2": _with(3, "1,2"),
    "bare-number": _with(3, "17"),
    "empty-array-line": _with(3, "[]"),
    "array-of-one-record": _with(3, "[" + _line(3) + "]"),
    "record-without-f": _with(5, '{"t":1.0,"k":"a"}'),
    "record-without-t": _with(5, '{"k":"a","f":{}}'),
    "f-not-an-object": _with(5, '{"t":1.0,"k":"a","f":[1,2]}'),
    "f-a-string": _with(5, '{"t":1.0,"k":"a","f":"time"}'),
    "f-null": _with(5, '{"t":1.0,"k":"a","f":null}'),
    "malformed-trigger": _with(9, '{"t":1.0,"k":"a","f":{"x":{"__trigger__":[1]}}}'),
    "malformed-iruns": _with(9, '{"t":1.0,"k":"a","f":{"x":{"__iruns__":[3]}}}'),
    "unhashable-set-member": _with(9, '{"t":1.0,"k":"a","f":{"x":{"__set__":[[1]]}}}'),
    "field-named-kind": _with(4, '{"t":1.0,"k":"a","f":{"kind":"b"}}'),
    "field-named-time": _with(4, '{"t":1.0,"k":"a","f":{"time":2}}'),
    "field-named-self": _with(4, '{"t":1.0,"k":"a","f":{"self":2}}'),
    "raw-newline-in-a-string": _with(4, '{"t":1.0,"k":"a","f":{"s":"x\ny"}}'),
    # one value per line on average, yet no line is a record: a cut record
    # (two lines, one value) beside a line that holds two
    "cut-in-an-array-beside-a-double": "\n".join([_line(0), _HEAD, _TAIL, _TWO, _line(3)]),
    "a-double-beside-a-cut-in-an-array": "\n".join([_TWO, _line(0), _HEAD, _TAIL]),
    "cut-in-an-object-beside-a-double": "\n".join([_OBJECT_HEAD, _OBJECT_TAIL, _TWO]),
    "cut-in-a-string-beside-a-double": "\n".join(
        ['{"t":1.0,"k":"a","f":{"s":"x', '{y"}}', _TWO]),
    "cut-at-every-line": "\n".join(["[", _line(0), "]"]),
    # unusual, and records all the same
    "crlf-endings": "\r\n".join(_lines(_BLOCK + 5)) + "\r\n",
    "blank-lines-between-blocks": "\n".join(
        _lines(_BLOCK) + ["", "   ", ""] + _lines(_BLOCK) + ["\t"] + _lines(3)
    ),
    "a-block-of-blank-lines": "\n" * (_BLOCK + 3) + _line(0) + "\n",
    "no-final-newline": "\n".join(_lines(20)),
    "indented-and-respaced": _with(6, '  { "k" : "a" , "f" : { "x" : [ 1 , 2 ] } , "t" : 1.0 }  '),
    "extra-keys-and-duplicates": _with(6, '{"t":1.0,"k":"a","f":{"x":1,"x":2},"g":0,"t":2.0}'),
    "string-with-brackets": _with(6, '{"t":1.0,"k":"a","f":{"s":"},{ [ ] \\" ]"}}'),
    "non-finite-numbers": _with(6, '{"t":Infinity,"k":"a","f":{"x":NaN,"y":-Infinity}}'),
    "time-a-string": _with(6, '{"t":"soon","k":null,"f":{}}'),
}


def _outcome(decoder, text: str):
    stream = io.StringIO(text)
    stream.name = "archive.jsonl"
    try:
        log = decoder(stream)
    except TraceFormatError as error:
        return "refused", str(error)
    return "accepted", dumps_trace(log)


@pytest.mark.parametrize("name", sorted(FILES))
def test_both_decoders_refuse_the_same_line_or_accept_the_same_records(name):
    outcome = _outcome(load_trace, FILES[name])
    assert outcome == _outcome(reference_load_trace, FILES[name])
    refused = not name.startswith((
        "crlf", "blank", "a-block", "no-final", "indented", "extra", "string-with",
        "non-finite", "time-a"))
    assert (outcome[0] == "refused") == refused
    if refused:
        assert outcome[1].startswith("archive.jsonl:")


def test_a_refusal_names_the_line_in_the_file_not_in_the_block():
    expected = {
        "bad-json-line-1": 1,
        "bad-json-last-line-of-block-1": _BLOCK,
        "bad-json-first-line-of-block-2": _BLOCK + 1,
        "bad-json-last-line": 2 * _BLOCK + 10,
        "truncated-final-line": 51,
        "cut-in-an-array-beside-a-double": 2,
        "a-double-beside-a-cut-in-an-array": 1,
    }
    for name, number in expected.items():
        with pytest.raises(TraceFormatError, match=rf"^<trace>:{number}: not a trace record$"):
            load_trace(FILES[name])


def test_a_bad_line_after_blank_lines_keeps_its_file_line_number(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text("\n".join(_lines(_BLOCK - 2) + ["", ""] + _lines(4) + ["oops"]) + "\n")
    with pytest.raises(TraceFormatError, match=rf"gaps\.jsonl:{_BLOCK + 5}: "):
        read_trace(str(path))


# -- value types: what round-trips, and what is known not to ---------------------------
def test_a_set_of_triggers_exports_and_round_trips():
    """Tagged members are dicts, which ``sorted`` cannot order: this used
    to raise ``TypeError`` out of the whole export."""
    log = TraceLog()
    log.record(1.0, "waves", open={Trigger(2, 1), Trigger(0, 1), Trigger(10, 3)},
               mixed={1, "a"}, ids={10, 2, 33})
    text = dumps_trace(log)
    assert text == dumps_trace(log)
    assert '"ids":{"__set__":[2,10,33]}' in text  # plain members: numeric order, as ever
    assert ('"open":{"__set__":[{"__trigger__":[0,1]},{"__trigger__":[10,3]},'
            '{"__trigger__":[2,1]}]}') in text  # tagged members: by their JSON text
    assert load_trace(text).last("waves").fields == log.last("waves").fields


def test_what_does_not_round_trip_is_known():
    """No emitter records a ``frozenset``, an int-keyed ``dict`` or a
    ``set`` (every container one records is a tuple); if one ever does,
    its archive re-reads as a different log. Documented in
    ``repro.sim.export``."""
    log = TraceLog()
    log.record(1.0, "x", frozen=frozenset({1, 2}))
    assert type(load_trace(dumps_trace(log)).last("x")["frozen"]) is set

    log = TraceLog()
    log.record(2.0, "y", table={1: "a"})
    assert load_trace(dumps_trace(log)).last("y")["table"] == {"1": "a"}

    # equal sets, but content_hash renders a set by its repr, and 8 and 0
    # collide in the table: whichever went in first comes out first
    log = TraceLog()
    log.record(3.0, "z", members=set([8, 0]))
    loaded = load_trace(dumps_trace(log))
    assert loaded.last("z")["members"] == {0, 8}
    assert loaded.content_hash() != log.content_hash()
