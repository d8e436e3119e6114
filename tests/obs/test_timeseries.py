"""Unit tests for the windowed telemetry sampler and its serializers."""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import (
    TimeseriesSampler,
    dump_timeseries_jsonl,
    dump_timeseries_tsv,
    merge_timeseries,
    save_timeseries,
)
from repro.sim.kernel import Simulator


class _StubSystem:
    """The minimal surface a sampler needs: sim + metrics + processes +
    a protocol's wave observers."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.metrics = MetricsRegistry()
        self.processes: dict = {}
        self.protocol = SimpleNamespace(observers=[])


def _sampler(window=10.0, **kwargs) -> TimeseriesSampler:
    system = _StubSystem()
    sampler = TimeseriesSampler(
        system, window, series=("ticks",), check_every=1, **kwargs
    )
    sampler.install()
    return sampler


def test_rows_hold_per_window_deltas():
    """A row closes when the first event past its boundary is dispatched;
    deltas accumulated since the previous emit — including that
    boundary-crossing event's own — land in the window being closed."""
    sampler = _sampler(window=10.0)
    sim = sampler.system.sim
    counter = sampler.system.metrics.counter("ticks")
    for t, n in ((1.0, 2), (5.0, 3), (12.0, 1), (25.0, 4)):
        sim.schedule_at(t, counter.inc, n)
    sim.run_until_idle()
    sampler.flush()
    doc = sampler.export()
    assert doc["window"] == 10.0
    assert doc["dropped"] == 0
    assert [(r["w"], r["events"], r["series"]["ticks"]) for r in doc["rows"]] == [
        (0, 3, 6.0),  # events at t=1, 5 and the boundary-crosser at t=12
        (1, 1, 4.0),  # the t=25 event closes window 1
    ]
    assert all(r["t"] == r["w"] * 10.0 and r["dt"] == 10.0 for r in doc["rows"])


def test_quiet_windows_produce_no_rows():
    sampler = _sampler(window=1.0)
    sim = sampler.system.sim
    counter = sampler.system.metrics.counter("ticks")
    sim.schedule_at(0.5, counter.inc)
    sim.schedule_at(100.5, counter.inc)
    sim.run_until_idle()
    sampler.flush()
    rows = sampler.export()["rows"]
    # one row, not a hundred zero rows: quiet windows emit nothing
    assert [r["w"] for r in rows] == [0]
    assert rows[0]["events"] == 2


def test_flush_is_idempotent():
    sampler = _sampler(window=10.0)
    sim = sampler.system.sim
    sim.schedule_at(1.0, sampler.system.metrics.counter("ticks").inc)
    sim.run_until_idle()
    sampler.flush()
    sampler.flush()
    assert len(sampler.export()["rows"]) == 1


def test_ring_bound_drops_oldest_and_counts():
    sampler = _sampler(window=1.0, capacity=3)
    sim = sampler.system.sim
    counter = sampler.system.metrics.counter("ticks")
    for w in range(6):
        sim.schedule_at(w + 0.5, counter.inc)
    sim.run_until_idle()
    sampler.flush()
    doc = sampler.export()
    assert [r["w"] for r in doc["rows"]] == [2, 3, 4]
    assert doc["dropped"] == 2


def test_argument_validation():
    system = _StubSystem()
    with pytest.raises(ValueError):
        TimeseriesSampler(system, 0.0)
    with pytest.raises(ValueError):
        TimeseriesSampler(system, 1.0, capacity=0)
    with pytest.raises(ValueError):
        TimeseriesSampler(system, 1.0, check_every=0)


def test_merge_is_per_window_addition():
    a = {"window": 5.0, "dropped": 1, "rows": [
        {"w": 0, "t": 0.0, "dt": 5.0, "events": 3, "series": {"x": 1.0}},
        {"w": 2, "t": 10.0, "dt": 5.0, "events": 2, "series": {"x": 4.0}},
    ]}
    b = {"window": 5.0, "dropped": 0, "rows": [
        {"w": 2, "t": 10.0, "dt": 5.0, "events": 5, "series": {"x": 6.0, "y": 1.0}},
        {"w": 7, "t": 35.0, "dt": 5.0, "events": 1, "series": {"x": 0.5}},
    ]}
    merged = merge_timeseries([a, b])
    assert merged["window"] == 5.0
    assert merged["dropped"] == 1
    assert [(r["w"], r["events"], r["series"]) for r in merged["rows"]] == [
        (0, 3, {"x": 1.0}),
        (2, 7, {"x": 10.0, "y": 1.0}),
        (7, 1, {"x": 0.5}),
    ]


def test_merge_is_order_independent():
    docs = [
        {"window": 2.0, "dropped": 0, "rows": [
            {"w": i, "t": 2.0 * i, "dt": 2.0, "events": i + 1,
             "series": {"x": float(i)}}
        ]}
        for i in range(4)
    ]
    forward = merge_timeseries(docs)
    backward = merge_timeseries(reversed(docs))
    assert forward == backward
    # associativity: ((a+b)+(c+d)) == fold over all four
    pairwise = merge_timeseries(
        [merge_timeseries(docs[:2]), merge_timeseries(docs[2:])]
    )
    assert pairwise == forward


def test_merge_skips_empty_inputs():
    assert merge_timeseries([{}, None, {}]) == {}


def test_jsonl_export_is_canonical():
    doc = {"window": 1.0, "dropped": 0, "rows": [
        {"w": 0, "t": 0.0, "dt": 1.0, "events": 2, "series": {"b": 1.0, "a": 2.0}},
    ]}
    buffer = io.StringIO()
    assert dump_timeseries_jsonl(doc, buffer) == 1
    text = buffer.getvalue()
    assert text == (
        '{"dt":1.0,"events":2,"series":{"a":2.0,"b":1.0},"t":0.0,"w":0}\n'
    )
    assert json.loads(text)


def test_tsv_export_round_trips_values():
    doc = {"window": 1.0, "dropped": 0, "rows": [
        {"w": 3, "t": 3.0, "dt": 1.0, "events": 7,
         "series": {"x": 0.1, "y": 2.0}},
    ]}
    buffer = io.StringIO()
    assert dump_timeseries_tsv(doc, buffer) == 1
    header, row = buffer.getvalue().splitlines()
    assert header.split("\t") == ["w", "t", "dt", "events", "x", "y"]
    cells = row.split("\t")
    assert cells[0] == "3" and cells[3] == "7"
    assert float(cells[4]) == 0.1  # repr round-trips exactly


def test_save_timeseries_picks_format_by_extension(tmp_path):
    doc = {"window": 1.0, "dropped": 0, "rows": [
        {"w": 0, "t": 0.0, "dt": 1.0, "events": 1, "series": {"x": 1.0}},
    ]}
    jsonl = tmp_path / "out.jsonl"
    tsv = tmp_path / "out.tsv"
    assert save_timeseries(doc, str(jsonl)) == 1
    assert save_timeseries(doc, str(tsv)) == 1
    assert jsonl.read_text().startswith("{")
    assert tsv.read_text().startswith("w\t")


def test_uninstall_stops_sampling():
    sampler = _sampler(window=1.0)
    sim = sampler.system.sim
    counter = sampler.system.metrics.counter("ticks")
    sim.schedule_at(0.5, counter.inc)
    sim.run_until_idle()
    sampler.uninstall()
    assert sampler.system.protocol.observers == []
    sim.schedule_at(5.5, counter.inc)
    sim.schedule_at(9.5, counter.inc)
    sim.run_until_idle()
    # the hook never ran after uninstall, so nothing was emitted
    assert list(sampler.rows) == []
