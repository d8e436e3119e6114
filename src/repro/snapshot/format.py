"""The on-disk snapshot container.

A ``.rsnap`` file is::

    magic "RSNP" | u16 format version | u32 header length
    | header (canonical JSON, UTF-8) | payload (pickle)

The header carries cheap metadata — trigger reason, sim time, event
count, protocol, seed — plus the payload's sha256 and length, so
``repro-sim snapshots`` can list and integrity-check a directory without
unpickling anything. Writes are atomic (a tmp file of the writer's own
beside the target + ``os.replace``), so neither a crash nor a failed
write leaves a torn ``.rsnap`` behind or damages the snapshot already at
that path; readers verify the digest before handing the payload to the
restore path. Neither the snapshotter nor ``resume_run`` holds a payload
whole: it is written and read one pickle frame at a time.

Version policy: the u16 is bumped whenever the header schema or payload
encoding changes incompatibly. Readers refuse newer versions outright
(``SnapshotError``) rather than guessing. Version 2 kept the container
and changed what the pickled classes write - int vectors and vector
clocks as packed bytes (sparse when mostly zero), random streams as
their state words - and those classes still accept what version 1
wrote, so a version-1 file resumes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, BinaryIO, Dict, Iterator, List, Tuple, Union

from repro.errors import SnapshotError

MAGIC = b"RSNP"
FORMAT_VERSION = 2

_FIXED = struct.Struct(">4sHI")  # magic, version, header length

#: canonical suffix for snapshot files
SNAPSHOT_SUFFIX = ".rsnap"
#: a payload as bytes, or as the chunks a streamed capture appended
Payload = Union[bytes, List[bytes]]


@dataclass(frozen=True)
class SnapshotMeta:
    """Header metadata for one snapshot (everything but the payload)."""

    seq: int
    reason: str
    sim_time: float
    events_processed: int
    protocol: str
    n_processes: int
    seed: int
    label: str = ""
    format_version: int = FORMAT_VERSION
    payload_sha256: str = ""
    payload_len: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SnapshotMeta":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def write_snapshot(path: str, meta: SnapshotMeta, payload: Payload) -> SnapshotMeta:
    """Atomically write ``payload`` (bytes, or its chunks) under ``meta`` to ``path``.

    The payload digest and length are stamped into the header here (the
    caller's values are overwritten). Returns the stamped meta.
    """
    chunks = [payload] if isinstance(payload, (bytes, bytearray)) else payload
    sha256 = hashlib.sha256()
    for chunk in chunks:
        sha256.update(chunk)
    stamped = SnapshotMeta.from_dict(
        {
            **meta.to_dict(),
            "format_version": FORMAT_VERSION,
            "payload_sha256": sha256.hexdigest(),
            "payload_len": sum(map(len, chunks)),
        }
    )
    header = json.dumps(stamped.to_dict(), sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    # A tmp name of this writer's own (two aiming at one path must not
    # interleave in one file), beside the target so the rename stays on
    # one file system.
    tmp_path = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(tmp_path, "wb") as fh:
            fh.write(_FIXED.pack(MAGIC, FORMAT_VERSION, len(header)))
            fh.write(header)
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise SnapshotError(f"{path}: cannot write snapshot: {exc}") from exc
        raise
    return stamped


def _read_header(fh: BinaryIO, path: str) -> SnapshotMeta:
    """Parse the fixed part and the header, leaving ``fh`` at the payload."""
    fixed = fh.read(_FIXED.size)
    if len(fixed) < _FIXED.size:
        raise SnapshotError(f"{path}: truncated snapshot header")
    magic, version, header_len = _FIXED.unpack(fixed)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    if version > FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: format version {version} is newer than "
            f"supported version {FORMAT_VERSION}"
        )
    header = fh.read(header_len)
    if len(header) < header_len:
        raise SnapshotError(f"{path}: truncated snapshot header")
    try:
        return SnapshotMeta.from_dict(json.loads(header.decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header: {exc}") from exc


def read_meta(path: str) -> SnapshotMeta:
    """Read only the header of ``path`` (no payload IO)."""
    try:
        with open(path, "rb") as fh:
            return _read_header(fh, path)
    except OSError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def open_snapshot(path: str) -> Iterator[Tuple[SnapshotMeta, BinaryIO]]:
    """Integrity-check a snapshot in place, then yield (meta, the open
    file at the payload's first byte). An ``OSError`` while the file is
    open, the caller's reads included, raises ``SnapshotError``."""
    try:
        with open(path, "rb") as fh:
            meta = _read_header(fh, path)
            start, sha256 = fh.tell(), hashlib.sha256()
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha256.update(chunk)
            length, digest = fh.tell() - start, sha256.hexdigest()
            if length != meta.payload_len:
                raise SnapshotError(
                    f"{path}: payload is {length} bytes, header says "
                    f"{meta.payload_len} (truncated file?)"
                )
            if digest != meta.payload_sha256:
                raise SnapshotError(
                    f"{path}: payload sha256 mismatch (file corrupted): "
                    f"{digest} != {meta.payload_sha256}"
                )
            fh.seek(start)
            yield meta, fh
    except OSError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc


def read_snapshot(path: str) -> Tuple[SnapshotMeta, bytes]:
    """Read and integrity-check a snapshot; return (meta, payload)."""
    with open_snapshot(path) as (meta, fh):
        return meta, fh.read()
