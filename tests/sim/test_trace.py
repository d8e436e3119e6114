"""Tests for the structured trace log."""

from __future__ import annotations

from repro.sim.trace import TraceLevel, TraceLog


def make_log() -> TraceLog:
    log = TraceLog()
    log.record(0.0, "send", src=1, dst=2)
    log.record(1.0, "recv", src=1, dst=2)
    log.record(2.0, "send", src=2, dst=1)
    log.record(3.0, "checkpoint", pid=1)
    return log


def test_append_and_len():
    log = make_log()
    assert len(log) == 4


def test_where_kind_and_a_two_kind_comprehension():
    log = make_log()
    assert len(log.where("send")) == 2
    assert len([r for r in log if r.kind in ("send", "recv")]) == 3


def test_where_with_conditions():
    log = make_log()
    assert len(log.where("send", src=1)) == 1
    assert log.where("send", src=3) == []


def test_where_missing_field_never_matches():
    log = make_log()
    assert log.where("send", nonexistent=1) == []


def test_count():
    log = make_log()
    assert log.count("send") == 2
    assert log.count("send", src=2) == 1


def test_last():
    log = make_log()
    assert log.last("send").time == 2.0
    assert log.last("nothing") is None


def test_disabled_log_records_nothing():
    log = TraceLog(level=TraceLevel.OFF)
    log.record(0.0, "send")
    assert len(log) == 0


def test_subscriber_sees_records():
    log = TraceLog()
    seen = []
    log.subscribe(lambda r: seen.append(r.kind))
    log.record(0.0, "a")
    log.record(1.0, "b")
    assert seen == ["a", "b"]


def test_record_getitem_and_get():
    log = make_log()
    rec = log.where("checkpoint")[0]
    assert rec["pid"] == 1
    assert rec.get("missing") is None
    assert rec.get("missing", 7) == 7


class TestFlightRecorder:
    def test_ring_bounds_debug_records(self):
        log = TraceLog(debug_capacity=3)
        log.record(0.0, "initiation", pid=0)
        for i in range(10):
            log.debug(float(i), "comp_send", src=0, dst=1, msg_id=i)
        assert log.debug_held == 3
        assert log.debug_evicted == 7
        assert len(log) == 4  # 1 INFO + 3 retained DEBUG

    def test_info_records_never_evicted(self):
        log = TraceLog(debug_capacity=2)
        for i in range(6):
            log.record(float(i), "tentative", pid=i)
            log.debug(float(i), "comp_send", src=i, dst=0, msg_id=i)
        assert len(log.where("tentative")) == 6
        assert log.debug_held == 2

    def test_merged_iteration_preserves_recording_order(self):
        log = TraceLog(debug_capacity=2)
        log.record(0.0, "a")
        log.debug(1.0, "b")
        log.debug(2.0, "c")
        log.record(3.0, "d")
        log.debug(4.0, "e")  # evicts b
        assert [r.kind for r in log] == ["a", "c", "d", "e"]
        assert log.last("a").kind == "a"

    def test_queries_see_merged_view(self):
        log = TraceLog(debug_capacity=2)
        log.debug(1.0, "comp_send", msg_id=1)
        log.debug(2.0, "comp_send", msg_id=2)
        log.debug(3.0, "comp_send", msg_id=3)  # evicts msg 1
        assert log.count("comp_send") == 2
        assert [r["msg_id"] for r in log.where("comp_send")] == [2, 3]
        assert log.last("comp_send")["msg_id"] == 3

    def test_subscribers_see_records_before_eviction(self):
        log = TraceLog(debug_capacity=1)
        seen = []
        log.subscribe(lambda r: seen.append(r.kind))
        log.debug(1.0, "x")
        log.debug(2.0, "y")
        log.debug(3.0, "z")
        assert seen == ["x", "y", "z"]
        assert log.debug_held == 1

    def test_invalid_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            TraceLog(debug_capacity=0)

    def test_normal_mode_reports_zero_held(self):
        log = TraceLog()
        log.debug(1.0, "x")
        assert log.debug_held == 0
        assert log.debug_evicted == 0
