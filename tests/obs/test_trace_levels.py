"""Self-tests for leveled tracing: filtering, sampling, fast flags."""

from __future__ import annotations

import pytest

from repro.sim.trace import TraceLevel, TraceLog


def test_default_log_records_everything():
    log = TraceLog()
    log.record(0.0, "commit")
    log.debug(0.0, "comp_send", src=0, dst=1)
    assert [r.kind for r in log] == ["commit", "comp_send"]
    assert log.debug_on and log.info_on


def test_info_level_drops_debug_keeps_lifecycle():
    log = TraceLog(level=TraceLevel.INFO)
    log.record(0.0, "commit")
    log.debug(0.0, "comp_send", src=0, dst=1)
    assert [r.kind for r in log] == ["commit"]
    assert not log.debug_on
    assert log.info_on


def test_off_level_records_nothing():
    log = TraceLog(level=TraceLevel.OFF)
    log.record(0.0, "commit")
    log.debug(0.0, "comp_send")
    assert len(log) == 0
    assert not log.info_on


def test_set_level_refreshes_fast_flags():
    log = TraceLog()
    log.set_level(TraceLevel.INFO)
    assert (log.debug_on, log.info_on) == (False, True)
    log.set_level(TraceLevel.DEBUG)
    assert (log.debug_on, log.info_on) == (True, True)


def test_debug_sampling_keeps_every_nth():
    log = TraceLog(sample_every=3)
    for i in range(9):
        log.debug(float(i), "comp_send", seq=i)
    # counter-based: records 3, 6, 9 (1-indexed) survive
    assert [r["seq"] for r in log] == [2, 5, 8]


def test_sampling_never_drops_info_records():
    log = TraceLog(sample_every=10)
    for i in range(5):
        log.record(float(i), "commit", seq=i)
        log.debug(float(i), "comp_send", seq=i)
    assert log.count("commit") == 5
    assert log.count("comp_send") == 0  # fewer than 10 debug records seen


def test_invalid_sample_every_rejected():
    with pytest.raises(ValueError):
        TraceLog(sample_every=0)


def test_clear_resets_sampling_counter():
    log = TraceLog(sample_every=2)
    log.debug(0.0, "comp_send", seq=0)  # dropped (1st)
    log.clear()
    log.debug(0.0, "comp_send", seq=1)  # dropped again (counter reset)
    log.debug(0.0, "comp_send", seq=2)  # kept
    assert [r["seq"] for r in log] == [2]


def test_content_hash_detects_any_difference():
    a, b = TraceLog(), TraceLog()
    for log in (a, b):
        log.record(1.0, "commit", trigger=0)
    assert a.content_hash() == b.content_hash()
    b.record(2.0, "commit", trigger=1)
    assert a.content_hash() != b.content_hash()


def test_content_hash_field_order_insensitive():
    a, b = TraceLog(), TraceLog()
    a.record(1.0, "x", p=1, q=2)
    b.record(1.0, "x", q=2, p=1)
    assert a.content_hash() == b.content_hash()


def test_level_names():
    assert TraceLevel.name(TraceLevel.DEBUG) == "DEBUG"
    assert TraceLevel.name(TraceLevel.OFF) == "OFF"
    assert TraceLevel.name(42) == "42"
