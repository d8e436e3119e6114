"""Self-test of the benchmark (smoke sizes; ~3 minutes; not in tier-1).

    python -m pytest benchmarks/e2e -q -o addopts=""
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402 - needs the path entry above

with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload: str, trace: int, *extra: str, seconds: float = 1.0) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "11", "--seconds", str(seconds), "--trace", str(trace),
               "--smoke", *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return {
        "workload": workload, "trace": trace, "stdout": done.stdout,
        "detail": json.loads(lines[-2].split(" ", 1)[1]),
        **json.loads(lines[-1]),
    }


@pytest.fixture(scope="module")
def smoke() -> Dict[Tuple[str, int], Dict[str, Any]]:
    return {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}


def test_spec_meets_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 10) < 3420


def test_output_names_units_directions_match_spec(smoke) -> None:
    for (workload, trace), result in smoke.items():
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert {"correct", "attempted", "failed", "metrics"} <= set(result)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
            row = re.search(rf"^{re.escape(metric['name'])}\s+\S+\s+(\S+)\s+(\w+) is better$",
                            result["stdout"], re.M)
            assert row and row.groups() == (metric["unit"], metric["better"])
        if not trace:
            assert all(e["value"] > 0 for e in result["metrics"].values())


def test_layer_shares_sum_to_one(smoke) -> None:
    for workload in WORKLOADS:
        metrics = smoke[(workload, 1)]["metrics"]
        shares = [e["value"] for n, e in metrics.items() if n.endswith(".share")]
        assert abs(sum(shares) - 1.0) <= 0.05, (workload, sum(shares))
        assert metrics["unattributed.share"]["value"] <= 0.05
        assert metrics["bench.tracing_overhead_ratio"]["value"] > 0


def test_digests_stable_across_runs_and_tracing(smoke) -> None:
    for workload in WORKLOADS:
        first = smoke[(workload, 0)]["detail"]
        again = run(workload, 0)["detail"]
        traced = smoke[(workload, 1)]["detail"]
        assert first["digest"] == again["digest"] == traced["digest"]
        assert first["counts"] == again["counts"] == traced["counts"]


def test_traced_run_writes_trace_and_layers(tmp_path) -> None:
    run("trace_export", 1, "--out", str(tmp_path))
    layers = json.loads((tmp_path / "trace_export" / "layers.json").read_text())
    assert layers["functions"] and layers["metrics"]["sim.export.save_ms"] > 0
    spans = [json.loads(line) for line in
             (tmp_path / "trace_export" / "trace.jsonl").read_text().splitlines()]
    assert 0 < len(spans) <= 50_000
    assert set(spans[0]) == {"id", "name", "layer", "start_ns", "end_ns",
                             "parent", "request_id"}


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    """Only BENCHMARK.json + the benchmark's own files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper16_sweep",
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_planted_slowdown_is_reported_where_it_lands(tmp_path) -> None:
    """A per-event burn (public Simulator.set_burn) slows the in-process
    sweep; the service's all-hit path runs no simulation and must not move."""
    def result_set(path: Path, *extra: str) -> str:
        runs = [run("paper16_sweep", 0, *extra) for _ in range(3)]
        runs += [run("grid_service", 1, *extra, seconds=3.0) for _ in range(3)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    a = result_set(tmp_path / "a.json")
    b = result_set(tmp_path / "b.json", "--burn-us", "40")
    rows = {(r["metric"], r["workload"]): r
            for r in compare.compare(a, b, layer_bound=0.25, spec=SPEC)}
    assert rows[("events_per_s", "paper16_sweep")]["verdict"] == "worse"
    assert rows[("hit_ms_p50", "grid_service")]["verdict"] == "unchanged"
