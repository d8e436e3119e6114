"""Tests for trace export / import."""

from __future__ import annotations

import io

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import Trigger
from repro.sim.export import dump_trace, load_trace, read_trace, save_trace
from repro.sim.trace import TraceLog


def dumps_trace(trace) -> str:
    """The trace as one JSON-lines string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def sample_trace() -> TraceLog:
    log = TraceLog()
    log.record(0.0, "permanent", pid=0, trigger=None, ckpt_id=1)
    log.record(1.5, "comp_send", src=0, dst=1, msg_id=42)
    log.record(2.0, "tentative", pid=1, trigger=Trigger(0, 1), csn=1, ckpt_id=2)
    log.record(3.0, "commit", trigger=Trigger(0, 1))
    log.record(4.0, "partial_commit", committed=(1, 2), excluded=(3,), trigger=Trigger(0, 1), failed=3)
    return log


def test_round_trip_preserves_records():
    original = sample_trace()
    restored = load_trace(dumps_trace(original))
    assert len(restored) == len(original)
    for a, b in zip(original, restored):
        assert a.time == b.time
        assert a.kind == b.kind
        assert a.fields == b.fields


def test_trigger_type_survives():
    restored = load_trace(dumps_trace(sample_trace()))
    rec = restored.last("commit")
    assert isinstance(rec["trigger"], Trigger)
    assert rec["trigger"] == Trigger(0, 1)


def test_tuples_survive():
    restored = load_trace(dumps_trace(sample_trace()))
    rec = restored.last("partial_commit")
    assert rec["committed"] == (1, 2)
    assert isinstance(rec["committed"], tuple)


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    count = save_trace(sample_trace(), path)
    assert count == 5
    restored = read_trace(path)
    assert len(restored) == 5


def test_checkers_work_on_imported_trace():
    """The whole point: consistency checking of archived runs."""
    from repro.analysis.consistency import find_orphans, latest_permanent_line
    from repro.scenarios.harness import ScenarioHarness

    h = ScenarioHarness(3, MutableCheckpointProtocol())
    h.deliver(h.send(1, 0))
    h.initiate(0)
    h.deliver_all_system()
    restored = load_trace(dumps_trace(h.trace))
    line = h.recovery_line()
    assert find_orphans(restored, line) == []


def test_empty_lines_ignored():
    restored = load_trace("\n\n")
    assert len(restored) == 0


def test_long_pid_tuples_run_length_encode():
    """A 256p rollback record's pid set exports as [start, count] runs,
    not 256 JSON numbers, and decodes back to the identical tuple."""
    log = TraceLog()
    log.record(5.0, "rollback", pids=tuple(range(256)), lost_messages=3)
    dumped = dumps_trace(log)
    assert "__iruns__" in dumped
    assert len(dumped) < 120  # full tuple would be ~1.5 KB
    restored = load_trace(dumped)
    rec = restored.last("rollback")
    assert rec["pids"] == tuple(range(256))
    assert isinstance(rec["pids"], tuple)
    assert restored.content_hash() == log.content_hash()


def test_gappy_pid_tuples_round_trip_through_runs():
    pids = tuple(range(0, 40)) + tuple(range(50, 90)) + (200,)
    log = TraceLog()
    log.record(1.0, "rollback", pids=pids, lost_messages=0)
    restored = load_trace(dumps_trace(log))
    assert restored.last("rollback")["pids"] == pids


def test_scattered_tuples_stay_plain():
    """Run-length encoding must only apply when it actually wins."""
    scattered = tuple(i * 7 % 251 for i in range(32))
    log = TraceLog()
    log.record(1.0, "weights", outstanding=scattered)
    dumped = dumps_trace(log)
    assert "__iruns__" not in dumped
    assert "__tuple__" in dumped
    restored = load_trace(dumped)
    assert restored.last("weights")["outstanding"] == scattered


def test_short_and_float_tuples_never_run_length_encode():
    log = TraceLog()
    log.record(0.0, "partial_commit", committed=(1, 2), excluded=(3,),
               trigger=Trigger(0, 1), failed=3)
    log.record(1.0, "weights", outstanding=tuple(0.5 for _ in range(32)))
    dumped = dumps_trace(log)
    assert "__iruns__" not in dumped
    restored = load_trace(dumped)
    assert restored.content_hash() == log.content_hash()


def debug_trace() -> TraceLog:
    """DEBUG-level records carrying every tagged value type."""
    log = TraceLog()
    log.record(0.0, "initiation", pid=0, trigger=Trigger(0, 1))
    log.debug(0.5, "sys_send", src=0, dst=1, subkind="request",
              trigger=Trigger(0, 1))
    log.debug(1.0, "comp_send", src=0, dst=1, msg_id=7)
    log.debug(1.5, "sys_broadcast", src=0, subkind="commit",
              trigger=Trigger(0, 1))
    log.record(2.0, "weights", pid=0, outstanding=(0.5, 0.25),
               holders={1, 2}, trigger=Trigger(0, 1))
    return log


def test_debug_records_round_trip_tagged_values():
    restored = load_trace(dumps_trace(debug_trace()))
    sys_send = restored.last("sys_send")
    assert isinstance(sys_send["trigger"], Trigger)
    weights = restored.last("weights")
    assert weights["outstanding"] == (0.5, 0.25)
    assert isinstance(weights["outstanding"], tuple)
    assert weights["holders"] == {1, 2}
    assert isinstance(weights["holders"], set)


def test_round_trip_content_hash_stable():
    original = debug_trace()
    restored = load_trace(dumps_trace(original))
    assert restored.content_hash() == original.content_hash()
    # And a second hop stays fixed: the encoding is canonical.
    again = load_trace(dumps_trace(restored))
    assert again.content_hash() == original.content_hash()


def flight_trace(capacity: int) -> TraceLog:
    log = TraceLog(debug_capacity=capacity)
    log.record(0.0, "initiation", pid=0, trigger=Trigger(0, 1))
    for i in range(10):
        log.debug(float(i), "comp_send", src=0, dst=1, msg_id=i)
    log.record(11.0, "commit", trigger=Trigger(0, 1))
    return log


def test_flight_recorder_dump_round_trips(tmp_path):
    log = flight_trace(capacity=3)
    assert log.debug_held == 3
    assert log.debug_evicted == 7
    path = str(tmp_path / "flight.jsonl")
    count = save_trace(log, path)
    assert count == 5  # 2 INFO + 3 retained DEBUG
    restored = read_trace(path)
    assert restored.content_hash() == log.content_hash()
    # Merged recording order survives: initiation, newest sends, commit.
    assert [r.kind for r in restored] == [
        "initiation", "comp_send", "comp_send", "comp_send", "commit"
    ]
    assert [r["msg_id"] for r in restored.where("comp_send")] == [7, 8, 9]


def test_streaming_sink_keeps_full_fidelity_under_flight_recorder(tmp_path):
    from repro.sim.export import JsonlTraceSink

    path = str(tmp_path / "stream.jsonl")
    log = TraceLog(debug_capacity=2)
    with JsonlTraceSink(path) as sink:
        sink.attach(log)
        log.record(0.0, "initiation", pid=0, trigger=Trigger(0, 1))
        for i in range(8):
            log.debug(float(i), "comp_send", src=0, dst=1, msg_id=i)
        log.record(9.0, "commit", trigger=Trigger(0, 1))
    assert log.debug_evicted == 6
    restored = read_trace(path)
    assert len(restored) == 10  # every record, despite the tiny ring
    assert sink.records_written == 10
    assert [r["msg_id"] for r in restored.where("comp_send")] == list(range(8))
