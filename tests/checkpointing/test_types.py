"""Tests for shared checkpointing datatypes."""

from __future__ import annotations

from itertools import count

import pytest

from repro.checkpointing.types import (
    CheckpointKind,
    CheckpointRecord,
    MREntry,
    Trigger,
    fresh_mr,
)


def test_trigger_equality_and_ordering():
    assert Trigger(1, 2) == Trigger(1, 2)
    assert Trigger(1, 2) != Trigger(1, 3)
    assert Trigger(1, 2).pid == 1
    assert Trigger(1, 2).inum == 2


def test_checkpoint_record_ids_unique_and_monotone():
    """Ids are issued by the run (its ``checkpoint_ids``), not by the record."""
    with pytest.raises(TypeError):
        CheckpointRecord(pid=0, csn=1, kind=CheckpointKind.MUTABLE, time_taken=0.0)
    ids = count()
    a = CheckpointRecord(pid=0, csn=1, kind=CheckpointKind.MUTABLE, time_taken=0.0,
                         ckpt_id=next(ids))
    b = CheckpointRecord(pid=0, csn=2, kind=CheckpointKind.MUTABLE, time_taken=0.0,
                         ckpt_id=next(ids))
    assert b.ckpt_id > a.ckpt_id


def test_is_stable():
    for kind, stable in [
        (CheckpointKind.MUTABLE, False),
        (CheckpointKind.TENTATIVE, True),
        (CheckpointKind.PERMANENT, True),
        (CheckpointKind.DISCONNECT, False),
    ]:
        r = CheckpointRecord(pid=0, csn=1, kind=kind, time_taken=0.0, ckpt_id=0)
        assert r.is_stable is stable


def test_mr_entry_merge():
    e = MREntry(2, False)
    merged = e.merged_with(5, True)
    assert merged == MREntry(5, True)
    assert e.merged_with(1, False) == MREntry(2, False)


def test_fresh_mr_all_zero():
    mr = fresh_mr(4)
    assert len(mr) == 4
    assert all(entry == MREntry(0, False) for entry in mr)
