"""Tests for the trace-based consistency checkers."""

from __future__ import annotations

import pytest

from repro.analysis.consistency import (
    Orphan,
    assert_line_consistent,
    channel_received,
    check_channel_counts,
    find_orphans,
    latest_permanent_line,
)
from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.storage import StableStorage
from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.errors import InconsistentCheckpointError
from repro.sim.trace import TraceLog


def ckpt(pid, csn, sent=None, received=None, kind=CheckpointKind.PERMANENT, ckpt_id=0):
    return CheckpointRecord(
        pid=pid, csn=csn, kind=kind, time_taken=float(csn), sent=sent,
        received=received, ckpt_id=ckpt_id,
    )


def trace_with(records):
    log = TraceLog()
    for time, kind, fields in records:
        log.record(time, kind, **fields)
    return log


class TestCheckpointPositions:
    def test_first_occurrence_wins(self):
        """A promoted mutable's capture point is the 'mutable' record."""
        log = trace_with(
            [
                (0.0, "mutable", {"pid": 0, "ckpt_id": 7}),
                (1.0, "tentative", {"pid": 0, "ckpt_id": 7}),
            ]
        )
        assert TraceIndex(log).captures.position == {7: 0}

    def test_ignores_other_kinds(self):
        log = trace_with(
            [
                (0.0, "comp_send", {"msg_id": 1}),
                (1.0, "permanent", {"pid": 0, "ckpt_id": 3}),
            ]
        )
        assert TraceIndex(log).captures.position == {3: 1}


class TestFindOrphans:
    def _line_and_trace(self, recv_before_ckpt, send_before_ckpt):
        """Two processes; message from 0 to 1; checkpoint order varies."""
        events = []
        events.append((0.0, "permanent", {"pid": 0, "ckpt_id": 100}))
        if send_before_ckpt:
            events.insert(0, (0.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 1}))
        else:
            events.append((1.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 1}))
        if recv_before_ckpt:
            events.append((2.0, "comp_recv", {"src": 0, "dst": 1, "msg_id": 1}))
            events.append((3.0, "permanent", {"pid": 1, "ckpt_id": 101}))
        else:
            events.append((2.0, "permanent", {"pid": 1, "ckpt_id": 101}))
            events.append((3.0, "comp_recv", {"src": 0, "dst": 1, "msg_id": 1}))
        log = trace_with(events)
        line = {
            0: CheckpointRecord(pid=0, csn=1, kind=CheckpointKind.PERMANENT, time_taken=0.0, ckpt_id=100),
            1: CheckpointRecord(pid=1, csn=1, kind=CheckpointKind.PERMANENT, time_taken=0.0, ckpt_id=101),
        }
        return log, line

    def test_orphan_detected(self):
        log, line = self._line_and_trace(recv_before_ckpt=True, send_before_ckpt=False)
        orphans = find_orphans(log, line)
        assert len(orphans) == 1
        assert orphans[0].msg_id == 1

    def test_recorded_send_and_recv_ok(self):
        log, line = self._line_and_trace(recv_before_ckpt=True, send_before_ckpt=True)
        assert find_orphans(log, line) == []

    def test_lost_message_is_not_orphan(self):
        """Send recorded, receive not recorded: lost, but consistent."""
        log, line = self._line_and_trace(recv_before_ckpt=False, send_before_ckpt=True)
        assert find_orphans(log, line) == []

    def test_missing_checkpoint_raises(self):
        log = trace_with([(0.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 1})])
        line = {0: ckpt(0, 1)}
        with pytest.raises(InconsistentCheckpointError):
            find_orphans(log, line)


class TestChannelCountChecker:
    def test_consistent_line(self):
        """P1 recorded 2 of the 3 sends P0 recorded: one in transit."""
        line = {0: ckpt(0, 1, {1: 3}, {1: 1}), 1: ckpt(1, 1, {0: 1}, {0: 2})}
        assert check_channel_counts(line) is True

    def test_inconsistent_line(self):
        """P1 recorded 4 receives from P0, P0 only 3 sends to it."""
        line = {0: ckpt(0, 1, {1: 3}, {}), 1: ckpt(1, 1, {}, {0: 4})}
        assert check_channel_counts(line) is False

    def test_a_record_without_counts_leaves_the_line_unjudged(self):
        line = {0: ckpt(0, 1, {1: 3}, {}), 1: ckpt(1, 1)}
        assert check_channel_counts(line) is None

    def test_it_judges_what_a_log_without_messages_cannot(self):
        log = trace_with([
            (0.0, "permanent", {"pid": 0, "ckpt_id": 300}),
            (1.0, "permanent", {"pid": 1, "ckpt_id": 301}),
        ])
        line = {
            0: ckpt(0, 1, {1: 3}, {}, ckpt_id=300),
            1: ckpt(1, 1, {}, {0: 4}, ckpt_id=301),
        }
        with pytest.raises(InconsistentCheckpointError, match="p1 recorded receives"):
            assert_line_consistent(log, line)
        line[1] = ckpt(1, 1, ckpt_id=301)
        assert_line_consistent(log, line)

    def test_received_after_rollback_is_what_the_line_sent(self):
        line = {
            0: ckpt(0, 1, {1: 3, 2: 1}, {}),
            1: ckpt(1, 1, {2: 5}, {0: 2}),
            2: ckpt(2, 1, {}, {}),
        }
        assert channel_received(line, 1) == {0: 3}
        assert channel_received(line, 2) == {0: 1, 1: 5}
        assert channel_received({**line, 2: ckpt(2, 1)}, 1) is None


class TestLatestPermanentLine:
    def test_picks_newest_across_storages(self):
        """Newest is the higher ckpt_id: the run issues them in order."""
        s1, s2 = StableStorage("a"), StableStorage("b")
        old = ckpt(0, 1, ckpt_id=10)
        new = ckpt(0, 2, ckpt_id=11)
        s1.store(old)
        s2.store(new)
        line = latest_permanent_line([s1, s2], [0])
        assert line[0] is new

    def test_ignores_tentative(self):
        s = StableStorage()
        perm = ckpt(0, 1)
        tent = ckpt(0, 2, kind=CheckpointKind.TENTATIVE)
        s.store(perm)
        s.store(tent)
        line = latest_permanent_line([s], [0])
        assert line[0] is perm

    def test_missing_process_raises(self):
        s = StableStorage()
        with pytest.raises(InconsistentCheckpointError):
            latest_permanent_line([s], [0])


def test_assert_line_consistent_raises_with_details():
    log = trace_with(
        [
            (0.0, "permanent", {"pid": 0, "ckpt_id": 200}),
            (1.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 9}),
            (2.0, "comp_recv", {"src": 0, "dst": 1, "msg_id": 9}),
            (3.0, "permanent", {"pid": 1, "ckpt_id": 201}),
        ]
    )
    line = {
        0: CheckpointRecord(pid=0, csn=1, kind=CheckpointKind.PERMANENT, time_taken=0.0, ckpt_id=200),
        1: CheckpointRecord(pid=1, csn=1, kind=CheckpointKind.PERMANENT, time_taken=0.0, ckpt_id=201),
    }
    with pytest.raises(InconsistentCheckpointError, match="orphan"):
        assert_line_consistent(log, line)


def test_orphan_str():
    o = Orphan(msg_id=1, src=0, dst=1, send_position=None, recv_position=5)
    assert "orphan message 1" in str(o)
