"""Tests for the durable JSONL result store."""

from __future__ import annotations

import json

from repro.campaign.store import PointRecord, ResultStore
from repro.core.results import RunResult


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


def test_in_memory_store():
    store = ResultStore()
    assert store.completed_hashes() == set()
    store.append(make_record("a"))
    store.append(make_record("b", status="failed"))
    assert store.get("a").ok
    # completion is the cache-hit question: failed records don't count
    assert store.get("b").error == "boom"
    assert store.completed_hashes() == {"a"}
    assert store.get("missing") is None


def test_durable_round_trip(tmp_path):
    path = str(tmp_path / "r.jsonl")
    with ResultStore(path) as store:
        store.append(make_record("a"))
        store.append(make_record("b"))
    with ResultStore(path) as store:
        assert store.completed_hashes() == {"a", "b"}
        assert store.get("a") == make_record("a")


def test_later_record_wins(tmp_path):
    path = str(tmp_path / "r.jsonl")
    with ResultStore(path) as store:
        store.append(make_record("a", status="failed"))
        store.append(make_record("a", status="ok", attempts=2))
    with ResultStore(path) as store:
        assert store.completed_hashes() == {"a"}
        assert store.get("a").attempts == 2
    # both attempts remain on disk (audit trail)
    lines = open(path).read().splitlines()
    assert len(lines) == 2


def test_torn_final_line_is_ignored(tmp_path):
    """A crash mid-write leaves a partial line; loading skips it."""
    path = str(tmp_path / "r.jsonl")
    with ResultStore(path) as store:
        store.append(make_record("a"))
        store.append(make_record("b"))
    with open(path, "a") as fh:
        fh.write(json.dumps(make_record("c").to_dict())[:37])
    with ResultStore(path) as store:
        assert store.completed_hashes() == {"a", "b"}
        assert store.get("c") is None
        # the store stays appendable after recovery
        store.append(make_record("d"))
    with ResultStore(path) as store:
        assert store.completed_hashes() == {"a", "b", "d"}


def test_record_rehydrates_run_result():
    record = make_record("a")
    result = record.run_result()
    assert isinstance(result, RunResult)
    assert result.sim_time == 1.0
