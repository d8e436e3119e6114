"""Tests for stable storage and the local mutable store."""

from __future__ import annotations

import pytest

from repro.checkpointing.storage import LocalStore, StableStorage
from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.errors import StorageError


def record(pid=0, csn=1, kind=CheckpointKind.TENTATIVE, ckpt_id=0):
    return CheckpointRecord(
        pid=pid, csn=csn, kind=kind, time_taken=0.0, ckpt_id=ckpt_id
    )


class TestStableStorage:
    def test_store_and_retrieve(self):
        s = StableStorage()
        r = record()
        s.store(r)
        assert s.checkpoints_of(0) == [r]
        assert len(s) == 1

    def test_rejects_mutable(self):
        s = StableStorage()
        with pytest.raises(StorageError):
            s.store(record(kind=CheckpointKind.MUTABLE))

    def test_accepts_disconnect_checkpoints(self):
        s = StableStorage()
        s.store(record(kind=CheckpointKind.DISCONNECT))
        assert len(s) == 1

    def test_latest_filters_by_kind(self):
        s = StableStorage()
        perm = record(csn=1, kind=CheckpointKind.PERMANENT)
        tent = record(csn=2, kind=CheckpointKind.TENTATIVE)
        s.store(perm)
        s.store(tent)
        assert s.latest(0) is tent
        assert s.latest(0, CheckpointKind.PERMANENT) is perm
        assert s.latest(1) is None

    def test_discard(self):
        s = StableStorage()
        r = record()
        s.store(r)
        s.discard(r)
        assert len(s) == 0
        with pytest.raises(StorageError):
            s.discard(r)

    def test_garbage_collect_keeps_latest_permanent(self):
        s = StableStorage()
        old = record(csn=1, kind=CheckpointKind.PERMANENT)
        new = record(csn=2, kind=CheckpointKind.PERMANENT)
        tent = record(csn=3, kind=CheckpointKind.TENTATIVE)
        for r in (old, new, tent):
            s.store(r)
        removed = s.garbage_collect(0)
        assert removed == 1
        assert old not in s.checkpoints_of(0)
        assert new in s.checkpoints_of(0)
        assert tent in s.checkpoints_of(0)

    def test_bytes_written_accounting(self):
        s = StableStorage()
        s.store(record())
        assert s.bytes_written == 512 * 1024
        assert s.writes == 1


class TestLocalStore:
    def test_save_and_remove(self):
        store = LocalStore()
        r = record(kind=CheckpointKind.MUTABLE)
        store.save(r)
        assert len(store) == 1
        store.remove(r)
        assert len(store) == 0
        assert store.removals == 1

    def test_rejects_non_mutable(self):
        store = LocalStore()
        with pytest.raises(StorageError):
            store.save(record(kind=CheckpointKind.TENTATIVE))

    def test_multiple_mutables_coexist(self):
        store = LocalStore()
        # the store is keyed by ckpt_id: two ids, two entries
        a = record(kind=CheckpointKind.MUTABLE, ckpt_id=1)
        b = record(csn=2, kind=CheckpointKind.MUTABLE, ckpt_id=2)
        store.save(a)
        store.save(b)
        assert len(store) == 2
        store.remove(a)
        assert len(store) == 1

    def test_wipe_models_volatility(self):
        store = LocalStore()
        store.save(record(kind=CheckpointKind.MUTABLE))
        store.wipe()
        assert len(store) == 0

    def test_remove_unknown_is_noop(self):
        store = LocalStore()
        store.remove(record(kind=CheckpointKind.MUTABLE))
        assert store.removals == 0
