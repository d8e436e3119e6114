"""Tests for offline (archived-trace) verification."""

from __future__ import annotations

import pytest

from repro.analysis.offline import verify_archived_trace, verify_trace_file
from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.errors import InconsistentCheckpointError
from repro.scenarios.figures import figure1
from repro.scenarios.harness import ScenarioHarness
from repro.sim.export import load_trace, save_trace
from repro.sim.trace import TraceLog
from tests.sim.test_export import dumps_trace


def consistent_harness():
    h = ScenarioHarness(3, MutableCheckpointProtocol())
    h.deliver(h.send(1, 0))
    h.initiate(0)
    h.deliver_all_system()
    return h


def test_round_tripped_trace_verifies_consistent():
    h = consistent_harness()
    trace = load_trace(dumps_trace(h.trace))
    verdict = verify_archived_trace(trace)
    assert verdict.consistent
    assert verdict.processes == 3
    assert verdict.commits == 1
    assert "consistent" in str(verdict)


def test_inconsistent_scenario_flagged_offline():
    # rebuild figure 1's broken run and archive it
    from repro.scenarios.naive import NaiveProtocol

    h = ScenarioHarness(3, NaiveProtocol())
    h.deliver(h.send(0, 1))
    h.deliver(h.send(2, 1))
    h.initiate(1)
    req0, req2 = h.pending_system("request")
    h.deliver(req0)
    m1 = h.send(0, 2)
    h.deliver(m1)
    h.deliver(req2)
    h.deliver_all_system()
    trace = load_trace(dumps_trace(h.trace))
    verdict = verify_archived_trace(trace)
    assert not verdict.consistent
    assert len(verdict.orphans) == 1
    assert "INCONSISTENT" in str(verdict)


def test_reconstruct_line_uses_newest_permanent():
    h = consistent_harness()
    line = TraceIndex(h.trace).captures.line
    assert set(line) == {0, 1, 2}
    # P0 and P1 have post-initiation permanents (higher ckpt ids)
    assert line[0] > line[2]


def test_empty_trace_rejected():
    with pytest.raises(InconsistentCheckpointError):
        verify_archived_trace(TraceLog())


def test_verify_trace_file(tmp_path):
    h = consistent_harness()
    path = str(tmp_path / "t.jsonl")
    save_trace(h.trace, path)
    verdict = verify_trace_file(path)
    assert verdict.consistent


def test_cli_verify_trace_exit_codes(tmp_path, capsys):
    from repro.cli import main

    h = consistent_harness()
    good = str(tmp_path / "good.jsonl")
    save_trace(h.trace, good)
    assert main(["verify-trace", good]) == 0
    # the figure-1 run is inconsistent by design
    from repro.scenarios.naive import NaiveProtocol

    h2 = ScenarioHarness(3, NaiveProtocol())
    h2.deliver(h2.send(0, 1))
    h2.initiate(1)
    m = h2.send(1, 2)  # untracked extra traffic
    h2.deliver_everything()
    bad = str(tmp_path / "unknown.jsonl")
    save_trace(h2.trace, bad)
    # may be consistent or not depending on ordering; just runs cleanly
    assert main(["verify-trace", bad]) in (0, 1)
