"""Self-tests for the metrics registry: merge algebra and edge cases."""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_bounds,
)


# -- instruments -------------------------------------------------------
def test_counter_accumulates():
    c = Counter("x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_gauge_set_and_max():
    g = Gauge("depth")
    g.set(4.0)
    g.max(2.0)
    assert g.value == 4.0
    g.max(9.0)
    assert g.value == 9.0


def test_registry_creates_on_first_use_and_reuses():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")
    assert reg.value("missing") == 0.0


def test_registry_rejects_bounds_change():
    reg = MetricsRegistry()
    reg.histogram("h", bounds=(1.0, 2.0))
    with pytest.raises(ValueError):
        reg.histogram("h", bounds=(1.0, 4.0))


# -- histogram edge cases ----------------------------------------------
def test_histogram_empty_percentile_is_zero():
    h = Histogram("h")
    assert h.percentile(50) == 0.0
    assert h.mean == 0.0
    assert h.stdev == 0.0


def test_histogram_percentile_extremes_are_exact():
    h = Histogram("h")
    for v in (0.3, 1.7, 42.0, 900.0):
        h.observe(v)
    assert h.percentile(0) == 0.3
    assert h.percentile(100) == 900.0


def test_histogram_percentile_clamped_to_observed_range():
    # A single sample: every percentile must be that sample, even though
    # the bucket upper bound (a power of two) lies above it.
    h = Histogram("h")
    h.observe(5.0)
    for p in (0, 25, 50, 75, 100):
        assert h.percentile(p) == 5.0


def test_histogram_percentile_out_of_range_raises():
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(100.5)


def test_histogram_unsorted_bounds_rejected():
    with pytest.raises(ValueError):
        Histogram("h", bounds=(2.0, 1.0))


def test_histogram_overflow_bucket():
    h = Histogram("h", bounds=(1.0, 2.0))
    h.observe(100.0)
    assert h.bucket_counts == [0, 0, 1]
    assert h.percentile(99) == 100.0  # clamped to observed max


def test_histogram_moments_exact():
    h = Histogram("h")
    values = [1.0, 2.0, 3.0, 4.0]
    for v in values:
        h.observe(v)
    assert h.mean == 2.5
    assert h.variance == pytest.approx(5.0 / 3.0)


def test_histogram_merge_requires_equal_bounds():
    a = Histogram("a", bounds=(1.0, 2.0))
    b = Histogram("b", bounds=(1.0, 4.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_dict_round_trip_empty_and_full():
    empty = Histogram("e")
    assert Histogram.from_dict("e", empty.to_dict()).to_dict() == empty.to_dict()
    full = Histogram("f")
    full.observe(3.0)
    again = Histogram.from_dict("f", full.to_dict())
    assert again.to_dict() == full.to_dict()
    assert again.minimum == 3.0


# -- merge algebra -----------------------------------------------------
def _sample_registry(offset: int) -> MetricsRegistry:
    """A registry with integer-valued observations (exact float adds)."""
    reg = MetricsRegistry()
    reg.counter("msgs").inc(10 + offset)
    reg.gauge("depth").set(float(offset))
    h = reg.histogram("lat")
    for v in range(1, 4 + offset):
        h.observe(float(v))
    return reg


def _snap_json(reg: MetricsRegistry) -> str:
    return json.dumps(reg.snapshot(), sort_keys=True)


def test_merge_is_associative():
    a, b, c = _sample_registry(1), _sample_registry(2), _sample_registry(3)
    left = MetricsRegistry.merged([a.snapshot(), b.snapshot()])
    left.merge(c.snapshot())
    bc = MetricsRegistry.merged([b.snapshot(), c.snapshot()])
    right = MetricsRegistry.merged([a.snapshot(), bc.snapshot()])
    assert _snap_json(left) == _snap_json(right)


def test_merge_is_commutative_on_integer_observations():
    a, b = _sample_registry(1), _sample_registry(2)
    ab = MetricsRegistry.merged([a.snapshot(), b.snapshot()])
    ba = MetricsRegistry.merged([b.snapshot(), a.snapshot()])
    assert _snap_json(ab) == _snap_json(ba)


def test_merge_accepts_registry_or_snapshot():
    a, b = _sample_registry(1), _sample_registry(2)
    via_registry = MetricsRegistry.merged([a, b])
    via_snapshot = MetricsRegistry.merged([a.snapshot(), b.snapshot()])
    assert _snap_json(via_registry) == _snap_json(via_snapshot)


def test_merge_gauges_take_max():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("depth").set(3.0)
    b.gauge("depth").set(7.0)
    merged = MetricsRegistry.merged([a, b])
    assert merged.value("depth") == 7.0


def test_snapshot_round_trip_and_sorted_keys():
    reg = _sample_registry(1)
    reg.counter("zzz").inc()
    reg.counter("aaa").inc()
    snap = reg.snapshot()
    assert list(snap["counters"]) == sorted(snap["counters"])
    rebuilt = MetricsRegistry.from_snapshot(snap)
    assert _snap_json(rebuilt) == json.dumps(snap, sort_keys=True)
