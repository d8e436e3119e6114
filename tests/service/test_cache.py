"""Tests for the global content-addressed result cache policy."""

from __future__ import annotations

from repro.campaign.spec import RunPoint
from repro.obs.registry import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.db import ResultDB

from tests.service.test_resultdb import make_record


def points(n=3):
    return [
        RunPoint(protocol="mutable",
                 workload_params={"mean_send_interval": 100.0 + i})
        for i in range(n)
    ]


def seed_store(db, point):
    db.append(make_record(point.point_hash))


def test_lookup_counts_hits_and_misses():
    db = ResultDB()
    metrics = MetricsRegistry()
    cache = ResultCache(db, metrics=metrics)
    a, b, _ = points()
    seed_store(db, a)
    cache.partition([a])
    cache.partition([b])
    assert metrics.value("service.cache.hits") == 1
    assert metrics.value("service.cache.misses") == 1
    assert cache.stats() == {"hits": 1, "misses": 1}


def test_failed_record_is_not_a_hit():
    db = ResultDB()
    cache = ResultCache(db)
    (a,) = points(1)
    db.append(make_record(a.point_hash, status="failed"))
    part = cache.partition([a])
    assert part.hits == [] and part.misses == [a]
    assert cache.stats() == {"hits": 0, "misses": 1}


def test_partition_splits_and_aligns():
    db = ResultDB()
    cache = ResultCache(db)
    a, b, c = points()
    seed_store(db, b)
    part = cache.partition([a, b, c])
    assert [p.point_hash for p in part.hits] == [b.point_hash]
    assert [p.point_hash for p in part.misses] == [a.point_hash, c.point_hash]
    assert cache.partition([b]).misses == []


def test_partition_dedupes_within_submission():
    """The same cell submitted twice in one grid is queued once and
    counted once, as a miss or as a hit."""
    db = ResultDB()
    cache = ResultCache(db)
    a, b, _ = points()
    part = cache.partition([a, a, b])
    assert [p.point_hash for p in part.misses] == [a.point_hash, b.point_hash]
    assert cache.stats() == {"hits": 0, "misses": 2}
    seed_store(db, b)
    part = cache.partition([b, b])
    assert part.hits == [b] and part.misses == []
    assert cache.stats() == {"hits": 1, "misses": 2}
