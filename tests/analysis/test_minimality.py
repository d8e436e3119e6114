"""Tests for the independent Theorem 3 (minimality) checker."""

from __future__ import annotations

import pytest

from repro.analysis.minimality import (
    check_minimality,
    must_checkpoint_set,
)
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import Trigger
from repro.scenarios.harness import ScenarioHarness
from tests.conftest import run_experiment


class TestClosureOnScriptedScenarios:
    def test_lone_initiator(self):
        h = ScenarioHarness(3, MutableCheckpointProtocol())
        h.initiate(0)
        h.deliver_all_system()
        report = must_checkpoint_set(h.trace, Trigger(0, 1))
        assert report.required == {0}
        assert report.participants == {0}
        assert report.minimal

    def test_direct_dependency_required(self):
        h = ScenarioHarness(3, MutableCheckpointProtocol())
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        report = must_checkpoint_set(h.trace, Trigger(0, 1))
        assert report.required == {0, 1}
        assert report.minimal

    def test_transitive_chain_required(self):
        h = ScenarioHarness(4, MutableCheckpointProtocol())
        h.deliver(h.send(2, 1))
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        report = must_checkpoint_set(h.trace, Trigger(0, 1))
        assert report.required == {0, 1, 2}
        assert report.minimal

    def test_stale_dependency_not_required(self):
        """A dependency already covered by the sender's own checkpoint
        is outside the closure (the §3.1.3 suppression is minimal)."""
        h = ScenarioHarness(3, MutableCheckpointProtocol())
        h.deliver(h.send(1, 0))
        h.initiate(1)              # P1 checkpoints on its own first
        h.deliver_all_system()
        h.initiate(0)
        h.deliver_all_system()
        report = must_checkpoint_set(h.trace, Trigger(0, 1))
        assert report.required == {0}
        assert report.minimal

    def test_figure3_minimal(self):
        from repro.scenarios.figures import figure3

        figure3()  # sanity: the worked example itself is minimal
        # rebuild to get the harness trace
        h = ScenarioHarness(3, MutableCheckpointProtocol())
        h.deliver(h.send(1, 0))
        h.initiate(0)
        h.deliver_all_system()
        for report in check_minimality(h.trace):
            assert report.minimal, str(report)


class TestSimulationMinimality:
    def test_mutable_is_minimal(self):
        system, _ = run_experiment(
            MutableCheckpointProtocol(), seed=5, initiations=5, mean_send_interval=50.0
        )
        for report in check_minimality(system.sim.trace):
            assert report.minimal, str(report)

    def test_elnozahy_shows_excess_at_low_rates(self):
        """Positive control: the all-process baseline takes checkpoints
        outside the closure — the waste the paper's Table 1 criticizes."""
        excess_found = False
        for seed in (1, 4, 6):
            system, _ = run_experiment(
                ElnozahyProtocol(), seed=seed, initiations=4, mean_send_interval=200.0
            )
            for report in check_minimality(system.sim.trace):
                assert not report.missing  # never unsafe, only wasteful
                if report.excess:
                    excess_found = True
        assert excess_found

    def test_reports_cover_all_commits(self):
        system, result = run_experiment(
            MutableCheckpointProtocol(), seed=9, initiations=4
        )
        reports = check_minimality(system.sim.trace)
        assert len(reports) == 4
