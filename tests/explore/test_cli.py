"""Tests for the ``explore`` CLI subcommand (and trace-out satellites)."""

from __future__ import annotations

import json
import os

from repro.cli import main


def test_explore_clean_run_exits_zero(tmp_path, capsys):
    code = main(
        ["explore", "--seeds", "4", "--seed", "3", "--quiet",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0 violations" in out
    assert "CLEAN" in out


def test_explore_mutation_exits_one_and_dumps_counterexample(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["explore", "--seeds", "17", "--mutation", "skip-mutable", "--quiet",
         "--out", str(out_dir)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    dumps = sorted(os.listdir(out_dir))
    assert any(name.endswith(".json") for name in dumps)
    assert any(name.endswith(".trace.jsonl") for name in dumps)
    # a forensic narrative rides along with every counterexample
    narratives = [name for name in dumps if name.endswith(".narrative.txt")]
    assert narratives
    text = (out_dir / narratives[0]).read_text()
    assert "wave 0" in text and "initiated by" in text
    # the dumped counterexample replays to a violation
    ce_path = next(
        out_dir / name for name in dumps if name.endswith(".json")
    )
    counterexample = json.loads(ce_path.read_text())
    from repro.explore.shrink import replay_counterexample

    assert replay_counterexample(counterexample).violations


def test_explore_workers_match_serial(tmp_path, capsys):
    def run(workers):
        code = main(
            ["explore", "--seeds", "5", "--seed", "3", "--workers", workers,
             "--quiet", "--out", str(tmp_path / f"w{workers}")]
        )
        assert code == 0
        return capsys.readouterr().out.splitlines()[-1]

    assert run("1") == run("2")


def test_explore_unknown_preset_rejected(capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["explore", "--preset", "nope"])


def test_explore_unknown_mutation_is_config_error(capsys):
    assert main(["explore", "--seeds", "2", "--mutation", "nope"]) == 2


def test_run_trace_out_alias(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    code = main(
        ["run", "--processes", "4", "--rate", "0.05", "--initiations", "2",
         "--trace-out", path]
    )
    assert code == 0
    from repro.sim.export import read_trace

    assert read_trace(path).count("commit") >= 2


def test_campaign_trace_out_writes_per_point_traces(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    code = main(
        ["campaign", "--preset", "smoke", "--no-store", "--quiet",
         "--trace-out", str(trace_dir)]
    )
    assert code == 0
    files = list(trace_dir.glob("*.jsonl"))
    from repro.campaign import preset_spec

    hashes = {point.point_hash for point in preset_spec("smoke").expand()}
    assert len(hashes) == 4
    assert {f.name for f in files} == {f"{h}.jsonl" for h in hashes}
    from repro.sim.export import read_trace

    assert all(len(list(read_trace(str(f)))) > 0 for f in files)
