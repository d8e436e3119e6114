"""Tests for the command-line interface."""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.core.registry import available_protocols


def test_protocols_lists_all(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    for name in ("mutable", "koo-toueg", "elnozahy", "chandy-lamport"):
        assert name in out


def test_run_prints_summary(capsys):
    code = main(
        ["run", "--protocol", "mutable", "--processes", "6", "--rate", "0.05",
         "--initiations", "3", "--seed", "9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tentative / initiation" in out
    assert "protocol                : mutable" in out


def test_run_with_verify(capsys):
    code = main(
        ["run", "--processes", "6", "--rate", "0.05", "--initiations", "3",
         "--verify"]
    )
    assert code == 0
    assert "consistent" in capsys.readouterr().out


def test_run_group_workload(capsys):
    code = main(
        ["run", "--processes", "8", "--workload", "group", "--rate", "0.05",
         "--initiations", "3"]
    )
    assert code == 0


def test_run_export_trace(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    code = main(
        ["run", "--processes", "4", "--rate", "0.05", "--initiations", "2",
         "--export-trace", path]
    )
    assert code == 0
    from repro.sim.export import read_trace

    trace = read_trace(path)
    assert trace.count("commit") >= 2


def test_sharded_run_exports_the_sequential_trace_byte_for_byte(tmp_path, capsys):
    """What CI's ``shard-smoke`` job compared with ``cmp``: ``--shards 4``
    changes the summary (one ``shards`` line) and nothing in the trace."""
    outputs = {}
    for shards in ("1", "4"):
        path = tmp_path / f"shards{shards}.jsonl"
        code = main(
            ["run", "--protocol", "mutable", "--processes", "64", "--cells", "8",
             "--shards", shards, "--seed", "11", "--rate", "0.05",
             "--initiations", "2", "--export-trace", str(path)]
        )
        assert code == 0
        summary = capsys.readouterr().out.replace(str(path), "PATH")
        outputs[shards] = (path.read_bytes(), summary.splitlines())
    assert outputs["4"][0] == outputs["1"][0]
    assert outputs["1"][0].count(b"\n") > 100
    extra = [line for line in outputs["4"][1] if line not in outputs["1"][1]]
    assert extra == [
        "shards                  : 4 (4 effective, 110 envelopes, "
        "0 lookahead violations at 0.5 ms)"
    ]


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "INCONSISTENT (as intended)" in out


def test_campaign_preset_runs_and_resumes(tmp_path, capsys):
    store = str(tmp_path / "smoke.jsonl")
    code = main(["campaign", "--preset", "smoke", "--workers", "2",
                 "--store", store, "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 points (4 run, 0 resumed, 0 failed)" in out
    assert "tentative_mean=" in out

    code = main(["campaign", "--preset", "smoke", "--store", store, "--quiet"])
    assert code == 0
    resumed = capsys.readouterr().out
    assert "(0 run, 4 resumed, 0 failed)" in resumed
    # result rows are identical whether computed or resumed
    rows = lambda s: [l for l in s.splitlines() if "tentative_mean=" in l]
    assert rows(resumed) == rows(out)


def test_campaign_spec_file(tmp_path, capsys):
    import json

    spec = {
        "name": "mini",
        "protocols": ["mutable"],
        "workloads": [{"kind": "p2p", "mean_send_interval": 50.0}],
        "configs": [{"n_processes": 4}],
        "run": {"max_initiations": 2, "warmup_initiations": 1},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["campaign", "--spec", str(path), "--no-store", "--quiet"])
    assert code == 0
    assert "campaign mini: 1 points" in capsys.readouterr().out


def test_campaign_list_points(capsys):
    assert main(["campaign", "--preset", "fig5", "--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    assert all("mutable p2p" in line for line in out)


def test_run_timeseries_and_metrics_out(tmp_path, capsys):
    ts_path = tmp_path / "run.tsv"
    metrics_path = tmp_path / "metrics.json"
    code = main(
        ["run", "--processes", "6", "--rate", "0.05", "--initiations", "2",
         "--seed", "9", "--timeseries-window", "60",
         "--timeseries-out", str(ts_path), "--metrics-out",
         str(metrics_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "timeseries written" in out
    assert "metrics written" in out
    assert ts_path.read_text().startswith("w\tt\tdt\tevents")
    import json

    metrics = json.loads(metrics_path.read_text())
    assert "wave.commits" in metrics["counters"]
    # canonical: dumping again with sorted keys reproduces the file
    assert metrics_path.read_text() == (
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )


def test_run_timeseries_out_needs_window(capsys):
    code = main(["run", "--timeseries-out", "nope.jsonl"])
    assert code == 2
    assert "--timeseries-window" in capsys.readouterr().err


def test_unknown_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "nope"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


BAD_STORE = '{"point_hash":"a","status":"ok","point":{}}\n123\n{"foo":1}\n'


NOT_A_RECORD = "bad.jsonl:2: not a point record"
NOT_A_TRACE = "bad.jsonl:1: not a trace record"

BAD_INPUT = {
    "run-processes-0": ("run --processes 0", "at least one process"),
    "run-cells-0": ("run --cells 0", "at least one MSS"),
    "run-initiations-1": ("run --initiations 1", "measured initiation"),
    "profile-initiations-1": ("profile --initiations 1", "measured initiation"),
    "run-rate-0": ("run --rate 0", "--rate: must be positive"),
    "verify-trace-missing": ("verify-trace missing.jsonl", "missing.jsonl"),
    "resume-missing": ("run --resume-from missing.rsnap", "missing.rsnap"),
    "snapshots-missing": ("snapshots missing.rsnap", "missing.rsnap"),
    "campaign-spec-missing": ("campaign --spec missing.json", "missing.json"),
    "campaign-workers-0": (
        "campaign --preset smoke --no-store --workers 0", "--workers"),
    "explore-workers-0": ("explore --workers 0", "--workers"),
    "serve-workers-0": ("serve --workers 0", "--workers"),
    "campaign-bad-store": (
        "campaign --preset smoke --store bad.jsonl", NOT_A_RECORD),
    "explore-bad-store": ("explore --seeds 2 --store bad.jsonl", NOT_A_RECORD),
    "serve-bad-import": (
        "serve --data-dir data --port 0 --import bad.jsonl", NOT_A_RECORD),
    "verify-trace-not-a-trace": ("verify-trace bad.jsonl", NOT_A_TRACE),
    "inspect-not-a-trace": ("inspect bad.jsonl", NOT_A_TRACE),
    "verify-trace-not-json": (
        "verify-trace garbage.jsonl", "garbage.jsonl:1: not a trace record"),
}


@pytest.mark.parametrize("command, complaint", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_is_an_error_line_and_exit_2(
    command, complaint, tmp_path, monkeypatch, capsys
):
    """One boundary: bad input never ends in a Python traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text(BAD_STORE)
    (tmp_path / "garbage.jsonl").write_text("not json\n")
    try:
        code = main(command.split())
    except SystemExit as exc:  # rejected at parse time
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: " in captured.err and complaint in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", available_protocols())
def test_every_protocol_run_ends_in_seconds(name, capsys):
    """A hand-launched run of any protocol ends: it commits its rounds, or
    the runner's no-progress rule refuses it with a one-line error."""
    started = time.perf_counter()
    code = main(["run", "--protocol", name, "--processes", "8",
                 "--initiations", "2"])
    assert time.perf_counter() - started < 10.0
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith(f"error: protocol {name!r} made no progress")
    if name == "timer-based":
        assert code == 0
        assert "tentative / initiation  : 8 " in out
        assert "system messages         : 0" in out
    if name == "csn-basic":
        assert code == 2


def test_verify_trace_with_nothing_to_verify_is_one_line_and_exit_1(
    tmp_path, capsys
):
    """A readable trace with no permanent checkpoint: not a traceback."""
    path = tmp_path / "empty.jsonl"
    path.write_text('{"t":0.0,"k":"initiation","f":{"pid":0}}\n')
    assert main(["verify-trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == "nothing to verify: trace has no permanent checkpoints\n"


def _exported_trace(tmp_path, extra=()):
    path = str(tmp_path / "trace.jsonl")
    code = main(
        ["run", "--processes", "6", "--rate", "0.05", "--initiations", "2",
         "--seed", "9", "--export-trace", path, *extra]
    )
    assert code == 0
    return path


def test_inspect_narrative(tmp_path, capsys):
    path = _exported_trace(tmp_path)
    capsys.readouterr()
    assert main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "wave 0" in out
    assert "forced (stable writes)" in out
    assert "justified closure" in out


def test_inspect_explain_and_wave(tmp_path, capsys):
    path = _exported_trace(tmp_path)
    capsys.readouterr()
    assert main(["inspect", path, "--wave", "0", "--explain", "0"]) == 0
    out = capsys.readouterr().out
    assert "initiated wave" in out or "no checkpoint" in out


def test_inspect_mermaid_and_dot(tmp_path, capsys):
    path = _exported_trace(tmp_path)
    capsys.readouterr()
    assert main(["inspect", path, "--wave", "0", "--mermaid"]) == 0
    assert capsys.readouterr().out.startswith("sequenceDiagram")
    assert main(["inspect", path, "--wave", "0", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_inspect_json(tmp_path, capsys):
    import json

    path = _exported_trace(tmp_path)
    capsys.readouterr()
    assert main(["inspect", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["waves"]
    assert data["has_debug"] is True


def test_inspect_diagram_without_wave_rejected(tmp_path, capsys):
    path = _exported_trace(tmp_path)
    assert main(["inspect", path, "--mermaid"]) == 2


def test_inspect_missing_file_rejected(capsys):
    assert main(["inspect", "/nonexistent/trace.jsonl"]) == 2


def test_run_flight_recorder_streams_full_trace(tmp_path, capsys):
    full = _exported_trace(tmp_path)
    bounded = str(tmp_path / "flight.jsonl")
    code = main(
        ["run", "--processes", "6", "--rate", "0.05", "--initiations", "2",
         "--seed", "9", "--flight-recorder", "32", "--export-trace", bounded]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flight recorder" in out
    with open(full) as a, open(bounded) as b:
        assert a.read() == b.read()  # streamed archive is full fidelity


def test_profile_flamegraph(tmp_path, capsys):
    path = str(tmp_path / "flame.txt")
    code = main(
        ["profile", "--processes", "4", "--initiations", "2",
         "--flamegraph", path]
    )
    assert code == 0
    lines = open(path).read().splitlines()
    assert lines
    for line in lines:
        frames, value = line.rsplit(" ", 1)
        assert frames.startswith("kernel;")
        assert int(value) >= 1


def test_snapshots_show_lists_set_members_sorted(tmp_path, capsys):
    """``snapshots --show`` prints the protocol state; R is a set, whose
    iteration order is no order, so every set prints sorted."""
    import json

    from repro.snapshot.snapshotter import read_snapshot
    from repro.snapshot.state import restore

    snap_dir = tmp_path / "snaps"
    assert main(
        ["run", "--processes", "16", "--rate", "0.5", "--initiations", "2",
         "--seed", "11", "--snapshot-every", "2000", "--snapshot-dir", str(snap_dir)]
    ) == 0

    def unordered(path):
        processes = restore(read_snapshot(str(path))[1]).system.protocol.processes
        return any(list(p.r) != sorted(p.r) for p in processes.values())

    path = next(p for p in sorted(snap_dir.glob("*.rsnap")) if unordered(p))
    capsys.readouterr()
    assert main(["snapshots", str(path), "--show"]) == 0
    out = capsys.readouterr().out
    state = json.loads(out[out.index("\n", out.index("kernel: ")):])
    rs = [process["r"] for process in state["processes"].values()]
    assert any(len(r) > 1 for r in rs)
    assert all(r == sorted(r) for r in rs)


@pytest.mark.parametrize("flags", [["--verify"], ["--export-trace", "out.jsonl"]])
def test_resuming_an_untraced_image_refuses_trace_flags(
    flags, tmp_path, monkeypatch, capsys
):
    """An image of a run below DEBUG holds no message records: exporting
    or verifying its resumed run would judge nothing, so it exits 2."""
    monkeypatch.chdir(tmp_path)
    assert main(
        ["run", "--processes", "8", "--rate", "0.05", "--initiations", "3",
         "--snapshot-every", "1000", "--snapshot-dir", "snaps"]
    ) == 0
    capsys.readouterr()
    assert main(["run", "--resume-from", "snaps", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "--export-trace, --verify or --flight-recorder" in err
    assert not (tmp_path / "out.jsonl").exists()
    assert main(["run", "--resume-from", "snaps"]) == 0


@pytest.mark.parametrize("command", ["run", "profile"])
def test_a_run_stopped_by_its_event_budget_is_one_line_and_exit_2(
    command, monkeypatch, capsys
):
    """The budget ends a run that has not finished with a summary line,
    not a traceback; any other SimulationError keeps its traceback."""
    import dataclasses

    import repro.cli as cli

    point_from_args = cli._point_from_args
    monkeypatch.setattr(
        cli, "_point_from_args",
        lambda args, **params: dataclasses.replace(
            point_from_args(args, **params), max_events=3000),
    )
    code = main([command, "--processes", "8", "--rate", "0.05",
                 "--initiations", "4", "--seed", "11"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "stopped after 3000 events: 3 of 4 initiations committed\n"
