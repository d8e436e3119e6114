"""Self-tests for leveled tracing: filtering, fast flags, content hash."""

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
