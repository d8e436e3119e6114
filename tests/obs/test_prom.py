"""Prometheus text-exposition rendering and the test-side parser.

The parser (``tests/obs/_prom_parser.py``) is what CI's metrics-smoke
job validates scrapes with, so it must reject malformed expositions as
readily as it accepts ours.
"""

from __future__ import annotations

import pytest

from repro.obs.prom import CONTENT_TYPE, render_prometheus
from repro.obs.registry import MetricsRegistry
from tests.obs._prom_parser import parse_prometheus_text, sample_map


def _snapshot() -> dict:
    registry = MetricsRegistry()
    registry.counter("net.wired.bytes").inc(128)
    registry.counter("waves").inc(3)
    registry.gauge("queue.depth").set(2)
    hist = registry.histogram("latency_seconds", bounds=(1.0, 2.0))
    for v in (0.5, 1.5, 9.0):
        hist.observe(v)
    return registry.snapshot()


def test_render_parses_with_own_parser():
    text = render_prometheus(_snapshot())
    families = parse_prometheus_text(text)
    assert set(families) == {
        "repro_net_wired_bytes_total",
        "repro_waves_total",
        "repro_queue_depth",
        "repro_latency_seconds",
    }
    assert families["repro_waves_total"]["type"] == "counter"
    assert families["repro_queue_depth"]["type"] == "gauge"
    assert families["repro_latency_seconds"]["type"] == "histogram"


def test_families_are_canonically_ordered():
    text = render_prometheus(_snapshot())
    helps = [l for l in text.splitlines() if l.startswith("# HELP")]
    names = [l.split()[2] for l in helps]
    assert names == sorted(names)
    assert render_prometheus(_snapshot()) == text  # byte-stable


def test_sample_map_flattens_values():
    smap = sample_map(parse_prometheus_text(render_prometheus(_snapshot())))
    assert smap[("repro_waves_total", ())] == 3.0
    assert smap[("repro_queue_depth", ())] == 2.0
    assert smap[("repro_latency_seconds_count", ())] == 3.0
    assert smap[("repro_latency_seconds_bucket", (("le", "+Inf"),))] == 3.0


def test_histogram_buckets_are_cumulative_with_inf():
    smap = sample_map(parse_prometheus_text(render_prometheus(_snapshot())))
    b1 = smap[("repro_latency_seconds_bucket", (("le", "1"),))]
    b2 = smap[("repro_latency_seconds_bucket", (("le", "2"),))]
    inf = smap[("repro_latency_seconds_bucket", (("le", "+Inf"),))]
    assert (b1, b2, inf) == (1.0, 2.0, 3.0)
    assert smap[("repro_latency_seconds_sum", ())] == pytest.approx(11.0)


def test_extra_gauges_carry_labels():
    text = render_prometheus(
        {"counters": {}, "gauges": {}, "histograms": {}},
        extra_gauges=[
            ("service.job.points", {"job_id": "job-1", "name": "x\ny\\\""}, 4.0),
        ],
    )
    smap = sample_map(parse_prometheus_text(text))
    key = ("repro_service_job_points",
           (("job_id", "job-1"), ("name", 'x\ny\\"')))
    assert smap[key] == 4.0


def test_name_collision_is_an_error():
    snapshot = {
        "counters": {"a.b": 1.0},
        "gauges": {"a_b_total": 2.0},  # sanitizes onto the counter's name
        "histograms": {},
    }
    with pytest.raises(ValueError):
        render_prometheus(snapshot)


def test_content_type_is_text_exposition():
    assert CONTENT_TYPE.startswith("text/plain")
    assert "0.0.4" in CONTENT_TYPE


@pytest.mark.parametrize("bad, reason", [
    ("repro_x_total 1\n", "sample without TYPE"),
    ("# TYPE repro_x counter\n# TYPE repro_x counter\nrepro_x_total 1\n",
     "duplicate TYPE"),
    ("# HELP repro_x x\n# TYPE repro_x counter\nrepro_x_total -1\n",
     "negative counter"),
    ("# HELP repro_x x\n# TYPE repro_x counter\nrepro_x_total\n",
     "malformed sample"),
])
def test_parser_rejects_malformed_expositions(bad, reason):
    with pytest.raises(ValueError):
        parse_prometheus_text(bad)


def test_parser_rejects_non_cumulative_histogram():
    text = (
        "# HELP repro_h h\n"
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="1"} 5\n'
        'repro_h_bucket{le="2"} 3\n'
        'repro_h_bucket{le="+Inf"} 5\n'
        "repro_h_sum 4\n"
        "repro_h_count 5\n"
    )
    with pytest.raises(ValueError):
        parse_prometheus_text(text)


def test_parser_rejects_count_inf_mismatch():
    text = (
        "# HELP repro_h h\n"
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="+Inf"} 5\n'
        "repro_h_sum 4\n"
        "repro_h_count 6\n"
    )
    with pytest.raises(ValueError):
        parse_prometheus_text(text)
