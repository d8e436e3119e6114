"""Self-tests for the kernel benchmark (``benchmarks/bench_kernel.py``).

The planted-regression test is the gate's own acceptance check: a burn
that doubles the per-event cost, paired against the clean run the way
``--check`` pairs HEAD with its parent, must fail the judge, while a
clean pairing must not.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import time

import pytest

from benchmarks import bench_kernel
from benchmarks.bench_kernel import (
    BenchCase,
    GateError,
    default_cases,
    experiment_case,
    judge,
    ladder_case,
    ladder_cases,
    paired_rates,
    resolve_parent,
)
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import (
    PointToPointWorkloadConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SimulationError
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


def test_default_cases_include_trace_pair():
    names = [case.name for case in default_cases()]
    assert "mutable_16p_trace_off" in names
    assert "mutable_16p_trace_on" in names


# -- the judge -------------------------------------------------------------
def test_self_comparison_is_clean():
    """A/A: the same rates on both sides never fail."""
    rates = [100.0, 96.0, 104.0]
    assert judge(rates, list(rates)) == "ok"
    assert judge([100.0], [100.0]) == "ok"


def test_a_speedup_never_fails():
    assert judge([200.0, 210.0, 190.0], [100.0, 101.0, 99.0]) == "ok"


def test_a_drop_below_the_parents_quartile_fails():
    assert judge([70.0, 69.0, 71.0], [100.0, 99.0, 101.0]) == "REGRESSION"


def test_a_drop_inside_a_wide_parent_spread_passes():
    """30 % under the parent's median, but above its lower quartile: the
    parent's own runs disagree that much, so it is noise."""
    assert judge([70.0, 70.0, 70.0], [40.0, 100.0, 160.0]) == "ok"


def test_a_drop_of_at_most_the_tolerance_passes():
    assert judge([80.0, 80.0, 80.0], [100.0, 100.0, 100.0]) == "ok"


def test_a_case_the_parent_cannot_run_is_not_gated():
    assert judge([50.0, 50.0, 50.0], None) == "not gated"

    def parent_run():
        raise bench_kernel.CaseError("ImportError: cannot import name 'x'")

    head, parent = paired_rates(lambda: (10, 1.0), parent_run, repeats=2)
    assert head == [10.0, 10.0]
    assert parent is None
    assert judge(head, parent) == "not gated"


def test_a_head_error_propagates():
    def head_run():
        raise bench_kernel.CaseError("AssertionError: lookup missed")

    with pytest.raises(bench_kernel.CaseError):
        paired_rates(head_run, lambda: (10, 1.0), repeats=1)


def test_planted_regression_is_detected():
    """A ``Simulator.set_burn`` hook as slow as one event doubles the tiny
    case's per-event cost; paired in-process it must fail the judge, and
    the reverse pairing (a speedup) must pass."""
    case = tiny_case()
    events, seconds = min((case.run() for _ in range(3)), key=lambda r: r[1])
    per_event = seconds / events

    def burn():
        end = time.perf_counter() + per_event
        while time.perf_counter() < end:
            pass

    slowed, clean = paired_rates(lambda: case.run(burn), case.run, repeats=5)
    assert judge(slowed, clean) == "REGRESSION"
    assert judge(clean, slowed) == "ok"


# -- the parent commit -----------------------------------------------------
def _git(repo, *command):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=bench", "-c",
         "user.email=bench@example.invalid", *command],
        check=True, capture_output=True,
    )


def _commit(repo, text):
    (repo / "src").mkdir(exist_ok=True)
    (repo / "src" / "mod.py").write_text(text)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", text)


def _rev(repo, ref):
    return subprocess.run(
        ["git", "-C", str(repo), "rev-parse", ref],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="no git")


@needs_git
def test_parent_is_head_parent_when_clean_and_head_when_dirty(tmp_path):
    _git(tmp_path, "init", "-q")
    _commit(tmp_path, "x = 1\n")
    _commit(tmp_path, "x = 2\n")
    assert resolve_parent(str(tmp_path)) == _rev(tmp_path, "HEAD^")
    (tmp_path / "src" / "mod.py").write_text("x = 3\n")
    assert resolve_parent(str(tmp_path)) == _rev(tmp_path, "HEAD")


@needs_git
def test_no_parent_exits_2(tmp_path, monkeypatch, capsys):
    _git(tmp_path, "init", "-q")
    _commit(tmp_path, "x = 1\n")
    with pytest.raises(GateError, match="fetch-depth"):
        resolve_parent(str(tmp_path))
    monkeypatch.setattr(bench_kernel, "ROOT", str(tmp_path))
    assert bench_kernel.main(["--check", "--repeats", "1"]) == 2
    assert "fetch-depth" in capsys.readouterr().err


def test_outside_git_exits_2(tmp_path):
    with pytest.raises(GateError):
        resolve_parent(str(tmp_path / "not-a-repo"))


# -- the ladder ------------------------------------------------------------
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
    # form the 32 -> 256 -> 1024 -> 4096 series
    assert "mutable_32p_trace_off" in [c.name for c in default_cases()]


def test_the_build_case_times_three_builds():
    events, seconds = bench_kernel._build_case(64).run()
    assert events == 3 and seconds > 0.0


def test_ladder_case_runs_within_its_event_budget():
    (case,) = ladder_cases(populations=(64,), max_events=5_000)
    events, seconds = case.run()
    assert 0 < events <= 5_000
    assert seconds > 0.0
    # the 8-cell rung's shape: same builder, SystemConfig fields passed through
    multicell = ladder_case("m", max_events=2_000, n_processes=64, n_mss=8)
    assert 0 < multicell.run()[0] <= 2_000


@pytest.mark.parametrize("make_case", [
    lambda: ladder_case("rung", max_events=50_000, n_processes=64),
    lambda: bench_kernel._snapshot_roundtrip_case(64),
], ids=["ladder_case", "snapshot_roundtrip"])
def test_only_the_event_budget_ends_a_run(monkeypatch, make_case):
    """A ``SimulationError`` that is not the budget (here one planted at
    t = 5) fails the run instead of being reported as a measurement."""
    build = bench_kernel._mutable_p2p

    def planted(*args, **kwargs):
        system, runner = build(*args, **kwargs)

        def boom():
            raise SimulationError("planted failure at t=5")

        system.sim.schedule_at(5.0, boom)
        return system, runner

    monkeypatch.setattr(bench_kernel, "_mutable_p2p", planted)
    with pytest.raises(SimulationError, match="planted"):
        make_case().run()


def test_committed_baseline_parses():
    """The committed BENCH_kernel.json is a raw-rate record naming every
    case, stamped with the host it was measured on."""
    with open(bench_kernel.RECORD_PATH, encoding="utf-8") as fh:
        record = json.load(fh)
    assert {"python", "platform", "cpu_count"} <= set(record)
    names = set(record["rates"])
    assert {c.name for c in default_cases()} <= names
    assert {c.name for c in ladder_cases()} <= names
    assert all(rate > 0 for rate in record["rates"].values())


def test_write_records_raw_rates_and_the_host(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_kernel.json"
    monkeypatch.setattr(bench_kernel, "RECORD_PATH", str(path))
    monkeypatch.setattr(
        bench_kernel, "_measure", lambda cases, repeats, parent: ({"a": 5.0}, [])
    )
    assert bench_kernel.main(["--write", "--repeats", "2"]) == 0
    record = json.loads(path.read_text())
    assert record["rates"] == {"a": 5.0}
    assert record["repeats"] == 2
    assert record["cpu_count"] == os.cpu_count()
    assert record["python"] and record["platform"]


# -- the child interpreter -------------------------------------------------
def test_a_child_run_imports_its_sides_repro(tmp_path):
    """A child measures the ``repro`` under the ``src`` it was given, or
    fails; it never silently falls back to another checkout's."""
    src = os.path.join(bench_kernel.ROOT, "src")
    events, seconds = bench_kernel.child_run(src, "message_alloc")
    assert events == 200_000 and seconds > 0.0
    with pytest.raises((GateError, bench_kernel.CaseError)):
        bench_kernel.child_run(str(tmp_path), "message_alloc")


@pytest.mark.parametrize("argv, repeats", [
    ([], 3), (["--check"], 5), (["--check", "--repeats", "2"], 2),
])
def test_check_runs_five_pairs_by_default(monkeypatch, argv, repeats):
    """Host phases lasting a few runs outvote a median of 3 pairs."""
    seen = []
    monkeypatch.setattr(bench_kernel, "parent_src",
                        lambda root: contextlib.nullcontext("parent/src"))
    monkeypatch.setattr(bench_kernel, "_measure",
                        lambda cases, n, parent: seen.append(n) or ({}, []))
    assert bench_kernel.main(argv) == 0
    assert seen == [repeats]
