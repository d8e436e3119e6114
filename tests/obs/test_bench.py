"""Self-tests for the benchmark harness and its regression detector.

The planted-regression test is the harness's own acceptance check: a
deliberate per-event slowdown must trip :func:`repro.obs.bench.compare`
at the CI threshold, while a clean self-comparison must not.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    BenchCase,
    append_history,
    calibrate,
    compare,
    default_cases,
    experiment_case,
    format_trends,
    ladder_case,
    ladder_cases,
    load_baseline,
    load_history,
    run_bench_suite,
)
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import (
    PointToPointWorkloadConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload


def tiny_case() -> BenchCase:
    """A milliseconds-scale case so the harness tests stay fast."""

    def build():
        config = SystemConfig(n_processes=4, seed=5, trace_messages=False)
        system = MobileSystem(config, MutableCheckpointProtocol())
        workload = PointToPointWorkload(
            system, PointToPointWorkloadConfig(mean_send_interval=2.0)
        )
        runner = ExperimentRunner(system, workload, RunConfig(max_initiations=3))
        return system, runner

    return experiment_case("tiny", build)


def test_case_run_reports_events_and_time():
    events, seconds = tiny_case().run()
    assert events > 0
    assert seconds > 0.0


def test_suite_shape_and_normalization():
    report = run_bench_suite([tiny_case()], repeats=1, calibration_rate=2.0)
    assert report["schema"] == 1
    assert report["calibration_rate"] == 2.0
    (row,) = report["results"]
    assert row["name"] == "tiny"
    assert row["normalized_rate"] == pytest.approx(row["rate"] / 2.0)
    json.dumps(report)  # must be JSON-safe as-is


def test_default_cases_include_trace_pair():
    names = [case.name for case in default_cases()]
    assert "mutable_16p_trace_off" in names
    assert "mutable_16p_trace_on" in names


def test_self_comparison_is_clean():
    report = run_bench_suite([tiny_case()], repeats=1, calibration_rate=1.0)
    assert compare(report, report) == []


def test_planted_regression_is_detected():
    """A deliberate per-event burn must trip the 25% regression gate."""
    case = tiny_case()
    baseline = run_bench_suite([case], repeats=2, calibration_rate=1.0)

    def burn():
        # Roughly an order of magnitude above the per-event dispatch
        # cost, so the planted slowdown is >2x regardless of machine.
        acc = 0
        for i in range(5000):
            acc += i & 3

    slowed = run_bench_suite(
        [case], repeats=2, burn=burn, calibration_rate=1.0
    )
    failures = compare(baseline, slowed, threshold=0.25)
    assert len(failures) == 1
    assert "tiny" in failures[0]
    # and the other direction (a speedup) is never a regression
    assert compare(slowed, baseline, threshold=0.25) == []


def test_compare_ignores_unknown_cases_and_zero_baselines():
    baseline = {
        "results": [
            {"name": "gone", "normalized_rate": 1.0},
            {"name": "zero", "normalized_rate": 0.0},
        ]
    }
    current = {
        "results": [
            {"name": "new", "normalized_rate": 0.001},
            {"name": "zero", "normalized_rate": 0.001},
        ]
    }
    assert compare(baseline, current) == []


def test_compare_warns_on_missing_baseline_entries():
    """A measured case with no committed baseline never fails the gate
    but must be surfaced, so freshly added cases don't ride ungated."""
    baseline = {"results": [{"name": "old", "normalized_rate": 1.0}]}
    current = {
        "results": [
            {"name": "old", "normalized_rate": 1.0},
            {"name": "brand_new", "normalized_rate": 0.5},
        ]
    }
    warnings: list = []
    assert compare(baseline, current, warnings=warnings) == []
    assert len(warnings) == 1
    assert "brand_new" in warnings[0]
    assert "no baseline" in warnings[0]
    # the warnings list is optional; omitting it keeps the old behavior
    assert compare(baseline, current) == []


def test_compare_warns_on_duplicate_normalized_rates():
    """Two cases agreeing to 15 significant digits cannot both be real
    measurements — it is a copy artifact (the committed baseline once
    carried mutable_1024p_trace_off's rate under the timeseries twin's
    name) and must be flagged on whichever side it appears."""
    stale = 0.003100180248699392
    baseline = {
        "results": [
            {"name": "case_a", "normalized_rate": stale},
            {"name": "case_b", "normalized_rate": stale},
            {"name": "case_c", "normalized_rate": 0.5},
        ]
    }
    current = {
        "results": [
            {"name": "case_a", "normalized_rate": stale},
            {"name": "case_b", "normalized_rate": stale * 0.99},
            {"name": "case_c", "normalized_rate": 0.49},
        ]
    }
    warnings: list = []
    assert compare(baseline, current, warnings=warnings) == []
    assert len(warnings) == 1
    assert warnings[0].startswith("baseline:")
    assert "case_a" in warnings[0] and "case_b" in warnings[0]
    assert "copy artifact" in warnings[0]
    # duplicates in the measured report are flagged too
    warnings = []
    compare(baseline, baseline, warnings=warnings)
    assert sum(w.startswith("measured:") for w in warnings) == 1
    # zero rates (placeholders) never collide
    zeros = {"results": [
        {"name": "a", "normalized_rate": 0.0},
        {"name": "b", "normalized_rate": 0.0},
    ]}
    warnings = []
    compare(zeros, zeros, warnings=warnings)
    assert warnings == []


def test_ladder_cases_cover_the_population_rungs():
    names = [case.name for case in ladder_cases()]
    assert names == [
        "mutable_256p_trace_off",
        "mutable_1024p_trace_off",
        "mutable_4096p_trace_off",
        "mutable_1024p_timeseries_1s",
        "mutable_1024p_mss8",
        "snapshot_roundtrip_1024p",
        "build_4096p",
    ]
    # the 1024p-coupled rungs exist only when their partner does
    assert [c.name for c in ladder_cases(populations=(256,))] == [
        "mutable_256p_trace_off"
    ]
    # the 32p rung is the default suite's existing case: together they
    # form the 32 -> 256 -> 1024 -> 4096 series in BENCH_kernel.json
    assert "mutable_32p_trace_off" in [c.name for c in default_cases()]


def test_ladder_case_runs_within_its_event_budget():
    (case,) = ladder_cases(populations=(64,), max_events=5_000)
    events, seconds = case.run()
    assert 0 < events <= 5_000
    assert seconds > 0.0
    # the 8-cell rung's shape: same builder, SystemConfig fields passed through
    multicell = ladder_case("m", max_events=2_000, n_processes=64, n_mss=8)
    assert 0 < multicell.run()[0] <= 2_000


def test_calibrate_is_positive():
    assert calibrate() > 0.0


def test_load_baseline_missing_and_invalid(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert load_baseline(str(bad)) is None
    empty = tmp_path / "empty.json"
    empty.write_text('{"results": []}')
    assert load_baseline(str(empty)) is None
    good = tmp_path / "good.json"
    good.write_text('{"results": [{"name": "x", "normalized_rate": 1.0}]}')
    assert load_baseline(str(good))["results"][0]["name"] == "x"


def test_committed_baseline_parses():
    """The repo's committed BENCH_kernel.json must stay loadable."""
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "BENCH_kernel.json"
    )
    baseline = load_baseline(path)
    assert baseline is not None
    names = {r["name"] for r in baseline["results"]}
    assert {c.name for c in default_cases()} <= names
    # the ladder rungs (including the sampler-on twin) are gated too
    assert {c.name for c in ladder_cases()} <= names


def _report(**rates):
    return {
        "calibration_rate": 1e7,
        "python": "3.x",
        "results": [
            {"name": name, "normalized_rate": rate, "events": 1,
             "seconds": 1.0, "rate": rate * 1e7}
            for name, rate in rates.items()
        ],
    }


def test_history_append_and_load_round_trip(tmp_path):
    path = str(tmp_path / "history.jsonl")
    append_history(path, _report(a=0.5), git_sha="sha1", timestamp=100.0)
    append_history(path, _report(a=0.6, b=0.1), git_sha="sha2", timestamp=200.0)
    history = load_history(path)
    assert [rec["git_sha"] for rec in history] == ["sha1", "sha2"]
    assert history[0]["normalized_rates"] == {"a": 0.5}
    assert history[1]["normalized_rates"] == {"a": 0.6, "b": 0.1}
    assert history[0]["timestamp"] == 100.0


def test_history_marks_rows_measured_on_an_uncommitted_tree(tmp_path):
    """A bench run before the commit stamps the parent's sha; ``dirty``
    says so. Rows from before the field existed simply lack it."""
    path = tmp_path / "history.jsonl"
    old_row = {"schema": 1, "timestamp": 1.0, "git_sha": "parent",
               "normalized_rates": {"a": 0.5}}
    path.write_text(json.dumps(old_row) + "\n")
    append_history(str(path), _report(a=0.6), git_sha="parent", dirty=True)
    append_history(str(path), _report(a=0.7), git_sha="child")
    history = load_history(str(path))
    assert [rec.get("dirty") for rec in history] == [None, True, False]
    assert "+40.0% over 3 runs" in format_trends(history)


def test_history_survives_a_torn_line(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(str(path), _report(a=0.5), git_sha="sha1")
    with open(path, "a") as fh:
        fh.write('{"schema": 1, "torn')  # a crashed append
    assert len(load_history(str(path))) == 1


def test_load_history_missing_file_is_empty():
    assert load_history("/nonexistent/history.jsonl") == []


def test_format_trends_one_line_per_case(tmp_path):
    path = str(tmp_path / "history.jsonl")
    append_history(path, _report(a=0.5, b=0.2), git_sha="s1", timestamp=1.0)
    append_history(path, _report(a=1.0, b=0.2), git_sha="s2", timestamp=2.0)
    text = format_trends(load_history(path))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a ") and "+100.0%" in lines[0]
    assert lines[1].startswith("b ") and "+0.0%" in lines[1]
    assert format_trends([]) == "(no history)"
