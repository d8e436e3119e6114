"""Durable result store for campaigns.

Append-only JSON lines keyed by each point's content hash. Durability
rules:

* every record is flushed and fsync'd before ``append`` returns, so a
  killed campaign loses at most the point it was writing;
* loading tolerates a torn final line (the classic crash artifact) by
  ignoring it;
* later records for the same hash win, so a retried or re-run point
  simply supersedes its earlier failure.

The store never trusts positions — resuming compares content hashes, so
it is safe to point several related campaigns at one store file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.results import RunResult
from repro.errors import StoreFormatError


@dataclass
class PointRecord:
    """Outcome of one campaign point (one store line).

    ``status`` is ``"ok"`` or ``"failed"``; failed records carry the
    error string instead of a result. ``attempts`` counts executions of
    this point so far, including the one recorded here.
    """

    point_hash: str
    status: str
    point: Dict[str, Any]
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 1
    wall_time: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def run_result(self) -> RunResult:
        """The stored result, rehydrated."""
        if self.result is None:
            raise ValueError(f"point {self.point_hash} has no result ({self.status})")
        return RunResult.from_dict(self.result)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point_hash": self.point_hash,
            "status": self.status,
            "point": self.point,
            "result": self.result,
            "error": self.error,
            "attempts": self.attempts,
            "wall_time": self.wall_time,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointRecord":
        return cls(**data)


def load_jsonl(path: str) -> Tuple[Dict[str, PointRecord], bool]:
    """Replay a JSONL store file: ``(records by hash, torn tail?)``.

    The one reader of the format (:class:`ResultStore` and
    ``ResultDB.import_jsonl`` both load through it). A line that does not
    parse is a torn write from a crash — the point it described simply
    reruns on resume — and is skipped; a line that parses but is not a
    :class:`PointRecord` means the file is not a result store, and is
    refused with its ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    records: Dict[str, PointRecord] = {}
    for number, line in enumerate(content.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue
        try:
            record = PointRecord.from_dict(data)
        except TypeError:
            # not a JSON object, or an object with a missing/unknown key
            raise StoreFormatError(f"{path}:{number}: not a point record") from None
        records[record.point_hash] = record
    return records, bool(content) and not content.endswith("\n")


class ResultStore:
    """JSONL-backed store of :class:`PointRecord`; ``path=None`` keeps
    everything in memory (useful for tests and one-shot benches)."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._records: Dict[str, PointRecord] = {}
        self._fh = None
        if path is not None:
            torn_tail = False
            if os.path.exists(path):
                self._records, torn_tail = load_jsonl(path)
            self._fh = open(path, "a", encoding="utf-8")
            if torn_tail:
                # Terminate the torn line so the next record starts on a
                # fresh one instead of concatenating with the fragment.
                self._fh.write("\n")
                self._fh.flush()

    # -- writing ---------------------------------------------------------
    def append(self, record: PointRecord) -> None:
        """Record one outcome, durably (flush + fsync before returning)."""
        self._records[record.point_hash] = record
        if self._fh is not None:
            self._fh.write(json.dumps(record.to_dict()) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ---------------------------------------------------------
    def get(self, point_hash: str) -> Optional[PointRecord]:
        """The latest record for the hash, successful or failed."""
        return self._records.get(point_hash)

    def completed_hashes(self) -> Set[str]:
        """Hashes with a successful result (what resume skips; a failed
        record is visible via :meth:`get` but must be re-run)."""
        return {h for h, r in self._records.items() if r.ok}
