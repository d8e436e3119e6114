"""SQLite result backend: the service's durable, indexed store.

:class:`ResultDB` speaks the :class:`~repro.campaign.store.ResultStore`
surface (``append`` / ``get`` / ``completed_hashes`` / ``close``), so
:class:`~repro.campaign.engine.CampaignEngine` and the cache layer use
either interchangeably. What SQLite adds over append-only JSONL:

* **indexed queries** — by point hash (primary key) and status, so a
  service holding millions of points answers "is this hash cached?"
  and the dashboard's status counts without scanning a file;
* **WAL mode** — concurrent readers (status/results endpoints) never
  block the writer appending results;
* **associative import/export** — :meth:`import_jsonl` folds an
  existing JSONL store in (later records win, exactly the JSONL replay
  rule) and :meth:`export_jsonl` writes one back out, so old campaign
  results migrate into a service and service results remain inspectable
  by every JSONL-reading tool.

Durability: commits run in WAL mode with ``synchronous=NORMAL`` — a
killed process (the service's failure mode, covered by CI's
serve-smoke kill/restart) loses nothing; only an OS-level power cut can
drop the very last commits, and the database stays consistent even
then.

The same cache-hit semantics as the JSONL store apply:
:meth:`completed_hashes` sees only successful records; failed records
are visible via :meth:`get` and must be re-run, never served from cache.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Dict, Iterator, Optional, Set

from repro.campaign.store import PointRecord, ResultStore, load_jsonl

_SCHEMA = """
CREATE TABLE IF NOT EXISTS points (
    point_hash TEXT PRIMARY KEY,
    status     TEXT NOT NULL,
    campaign   TEXT NOT NULL DEFAULT '',
    attempts   INTEGER NOT NULL DEFAULT 1,
    wall_time  REAL NOT NULL DEFAULT 0.0,
    record     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_points_status ON points (status);
CREATE INDEX IF NOT EXISTS idx_points_campaign ON points (campaign);
"""


class ResultDB:
    """SQLite-backed store of :class:`PointRecord`.

    ``path=None`` opens an in-memory database (tests, one-shot use).
    Safe to share across threads: the HTTP handler threads read while
    the job runner writes; a lock serializes access to the single
    connection and WAL keeps readers unblocked at the file level.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path if path is not None else ":memory:",
            check_same_thread=False,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)

    # -- writing ---------------------------------------------------------
    def append(self, record: PointRecord, campaign: str = "") -> None:
        """Record one outcome durably; a same-hash record supersedes.

        ``campaign`` fills the row's indexed ``campaign`` column; the
        engine calls the two-argument :class:`ResultStore` signature, so
        untagged rows are simply the empty campaign.
        """
        row = (
            record.point_hash,
            record.status,
            campaign,
            record.attempts,
            record.wall_time,
            json.dumps(record.to_dict(), sort_keys=True),
        )
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO points "
                "(point_hash, status, campaign, attempts, wall_time, record) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(point_hash) DO UPDATE SET "
                "status=excluded.status, campaign=excluded.campaign, "
                "attempts=excluded.attempts, wall_time=excluded.wall_time, "
                "record=excluded.record",
                row,
            )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultDB":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- reading (the ResultStore surface) -------------------------------
    def get(self, point_hash: str) -> Optional[PointRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT record FROM points WHERE point_hash = ?",
                (point_hash,),
            ).fetchone()
        if row is None:
            return None
        return PointRecord.from_dict(json.loads(row[0]))

    def records(self) -> Iterator[PointRecord]:
        """Every record, in point-hash order."""
        with self._lock:
            cur = self._conn.execute(
                "SELECT record FROM points ORDER BY point_hash"
            )
            blobs = [row[0] for row in cur.fetchall()]
        for blob in blobs:
            yield PointRecord.from_dict(json.loads(blob))

    def completed_hashes(self) -> Set[str]:
        """Hashes with a successful result (what resume/cache skips)."""
        with self._lock:
            cur = self._conn.execute(
                "SELECT point_hash FROM points WHERE status = 'ok'"
            )
            return {row[0] for row in cur.fetchall()}

    def status_counts(self) -> Dict[str, int]:
        """``{status: row count}`` — the dashboard's one-query summary."""
        with self._lock:
            cur = self._conn.execute(
                "SELECT status, COUNT(*) FROM points GROUP BY status"
            )
            return {status: int(count) for status, count in cur.fetchall()}

    # -- migration -------------------------------------------------------
    def import_jsonl(self, path: str, campaign: str = "") -> int:
        """Fold a JSONL :class:`ResultStore` file in; returns rows merged.

        Uses the JSONL store's replay rule — torn final lines are
        tolerated, later records for a hash win — and upserts each
        surviving record, so importing is associative: folding several
        overlapping stores in, in any interleaving, leaves the same
        database as appending all their records in file order.
        """
        merged, _ = load_jsonl(path)
        for record in merged.values():
            self.append(record, campaign=campaign)
        return len(merged)

    def export_jsonl(self, path: str) -> int:
        """Write every record out as a JSONL store; returns rows written.

        The result loads in :class:`ResultStore` unchanged (one record
        per hash, so replay is the identity), closing the migration
        loop: JSONL -> SQLite -> JSONL round-trips losslessly.
        """
        count = 0
        with ResultStore(path) as out:
            for record in self.records():
                out.append(record)
                count += 1
        return count
