"""On-disk container: round trip, integrity checks, atomicity."""

from __future__ import annotations

import errno
import os
import struct
import threading

import pytest

from repro.errors import SnapshotError
from repro.snapshot import format as snapshot_format
from repro.snapshot import (
    FORMAT_VERSION,
    SnapshotMeta,
    open_snapshot,
    read_meta,
    read_snapshot,
    write_snapshot,
)


def _meta(**overrides):
    fields = dict(
        seq=3,
        reason="events",
        sim_time=123.456,
        events_processed=2000,
        protocol="mutable",
        n_processes=16,
        seed=7,
        label="smoke",
    )
    fields.update(overrides)
    return SnapshotMeta(**fields)


def test_round_trip(tmp_path):
    path = str(tmp_path / "a.rsnap")
    payload = b"not really a pickle, but bytes are bytes" * 100
    write_snapshot(path, _meta(), payload)
    meta, back = read_snapshot(path)
    assert back == payload
    assert meta.seq == 3
    assert meta.reason == "events"
    assert meta.sim_time == 123.456
    assert meta.events_processed == 2000
    assert meta.protocol == "mutable"
    assert meta.label == "smoke"
    assert meta.format_version == FORMAT_VERSION
    assert meta.payload_len == len(payload)


def test_read_meta_does_not_need_payload(tmp_path):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(), b"x" * 10_000)
    meta = read_meta(path)
    assert meta.events_processed == 2000
    # the header must describe the payload without reading it
    assert meta.payload_len == 10_000
    assert len(meta.payload_sha256) == 64


def test_meta_dict_round_trip():
    meta = _meta()
    clone = SnapshotMeta.from_dict(meta.to_dict())
    assert clone == meta


def test_meta_from_dict_ignores_unknown_keys():
    data = _meta().to_dict()
    data["added_in_a_future_version"] = True
    assert SnapshotMeta.from_dict(data).seq == 3


def test_write_is_atomic_no_tmp_left_behind(tmp_path):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(), b"payload")
    leftovers = [n for n in os.listdir(tmp_path) if n != "a.rsnap"]
    assert leftovers == []


def test_corrupt_payload_detected(tmp_path):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(), b"p" * 1000)
    with open(path, "r+b") as fh:
        fh.seek(-10, os.SEEK_END)
        fh.write(b"XXXX")
    read_meta(path)  # header untouched: still fine
    with pytest.raises(SnapshotError, match="sha256|corrupt"):
        read_snapshot(path)


def test_truncated_payload_detected(tmp_path):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(), b"p" * 1000)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 200)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_streamed_payload_round_trip(tmp_path):
    """A payload written as its chunks is the same file as one written
    whole, and open_snapshot hands it back from the file."""
    parts = [b"abc" * 1000, b"", b"xyz" * 5000]
    streamed, whole = str(tmp_path / "s.rsnap"), str(tmp_path / "w.rsnap")
    meta = write_snapshot(streamed, _meta(), parts)
    write_snapshot(whole, _meta(), b"".join(parts))
    with open(streamed, "rb") as a, open(whole, "rb") as b:
        assert a.read() == b.read()
    assert meta.payload_len == sum(map(len, parts))
    with open_snapshot(streamed) as (read_back, fh):
        assert read_back == meta
        assert fh.read() == b"".join(parts)


@pytest.mark.parametrize("damage", ["corrupt", "truncate"])
def test_open_snapshot_refuses_a_damaged_payload_before_yielding(tmp_path, damage):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(), b"p" * 3_000_000)  # three check chunks
    with open(path, "r+b") as fh:
        if damage == "corrupt":
            fh.seek(-10, os.SEEK_END)
            fh.write(b"XXXX")
        else:
            fh.truncate(os.path.getsize(path) - 200)
    with pytest.raises(SnapshotError, match="sha256" if damage == "corrupt" else "truncated"):
        with open_snapshot(path):
            pytest.fail("a damaged payload reached the reader")


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "a.rsnap")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="magic|not a snapshot"):
        read_meta(path)


def test_future_version_refused(tmp_path):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(), b"payload")
    with open(path, "r+b") as fh:
        fh.seek(4)  # magic | u16 version | u32 header len
        fh.write(struct.pack(">H", FORMAT_VERSION + 1))
    with pytest.raises(SnapshotError, match="version"):
        read_meta(path)


def test_empty_file_rejected(tmp_path):
    path = str(tmp_path / "a.rsnap")
    open(path, "wb").close()
    with pytest.raises(SnapshotError):
        read_meta(path)


# -- failed writes ---------------------------------------------------------------

def _enospc(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDisk:
    """A binary file whose second ``write`` finds the disk full."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            _enospc()
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


@pytest.mark.parametrize("failing", ["write", "fsync", "replace"])
def test_failed_write_cleans_up_and_keeps_the_old_snapshot(
    tmp_path, monkeypatch, failing
):
    path = str(tmp_path / "a.rsnap")
    write_snapshot(path, _meta(seq=1), b"the good one")
    if failing == "write":
        monkeypatch.setattr(
            snapshot_format, "open",
            lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)), raising=False,
        )
    else:
        monkeypatch.setattr(os, failing, _enospc)
    with pytest.raises(SnapshotError, match=r"a\.rsnap.*Errno 28") as raised:
        write_snapshot(path, _meta(seq=2), b"never lands" * 1000)
    assert raised.value.__cause__.errno == errno.ENOSPC
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["a.rsnap"]
    meta, payload = read_snapshot(path)
    assert (meta.seq, payload) == (1, b"the good one")


def test_unwritable_directory_is_a_snapshot_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    with pytest.raises(SnapshotError, match="cannot write snapshot"):
        write_snapshot(str(blocker / "a.rsnap"), _meta(), b"payload")


def test_two_writers_at_one_path_use_separate_tmp_files(tmp_path, monkeypatch):
    path = str(tmp_path / "a.rsnap")
    both_mid_write = threading.Barrier(2, timeout=10)
    seen = []
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        both_mid_write.wait()
        seen.append(sorted(n for n in os.listdir(tmp_path) if n.endswith(".tmp")))
        both_mid_write.wait()

    monkeypatch.setattr(os, "fsync", fsync)
    payloads = [b"first writer " * 500, b"second writer " * 900]
    writers = [
        threading.Thread(target=write_snapshot, args=(path, _meta(seq=i), payload))
        for i, payload in enumerate(payloads)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=20)
        assert not writer.is_alive()
    monkeypatch.undo()
    assert len(seen) == 2 and len(seen[0]) == 2  # two tmp files at once
    assert os.listdir(tmp_path) == ["a.rsnap"]
    meta, payload = read_snapshot(path)  # one writer's file, whole
    assert payload == payloads[meta.seq]
