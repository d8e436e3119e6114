"""Tests for the report generator."""

from __future__ import annotations

import pytest

from repro.analysis.comparison import format_table, measured_row
from repro.campaign import CampaignEngine, preset_spec
from repro.cli import main
from repro.reporting import ReportScale, generate_report, write_report


@pytest.fixture(scope="module")
def quick_report() -> str:
    return generate_report(ReportScale.quick())


def test_report_contains_all_sections(quick_report):
    for heading in (
        "## Figure 5",
        "## Figure 6",
        "## Table 1",
        "## Figures 1–4",
        "## Theorem 3",
    ):
        assert heading in quick_report


def test_report_tables_are_markdown(quick_report):
    assert "| rate (msg/s) | tentative |" in quick_report
    assert "|---:|" in quick_report


def test_report_figures_rows(quick_report):
    assert "| fig3 | True | 0 |" in quick_report
    assert "| fig1 | False | 1 |" in quick_report


def test_report_minimality_line(quick_report):
    assert "committed initiations took exactly the required process set" in quick_report


def test_write_report(tmp_path):
    path = str(tmp_path / "report.md")
    content = write_report(path, ReportScale.quick())
    with open(path) as handle:
        assert handle.read() == content


def test_scales_differ():
    assert ReportScale.quick().initiations < ReportScale.full().initiations


def _table1_rows(max_initiations=None):
    report = CampaignEngine(preset_spec("table1", max_initiations)).run()
    return [measured_row(result) for result in report.results()]


def test_table1_has_one_source(quick_report, capsys):
    """``repro-sim table1``, the report's Table 1 section and the
    ``table1`` campaign preset print the same measured numbers."""
    assert main(["table1"]) == 0
    printed = capsys.readouterr().out
    assert format_table(_table1_rows(), "Table 1 (measured)") in printed
    for row in _table1_rows(ReportScale.quick().initiations):
        assert (
            f"| {row.algorithm} | {row.checkpoints:.2f} | {row.blocking_time:.1f} "
            f"| {row.output_commit_delay:.2f} | {row.messages:.1f} |"
        ) in quick_report


def test_fig5_section_sweeps_the_preset_rates(quick_report):
    section = quick_report.split("## Figure 5")[1].split("## Figure 6")[0]
    rates = [
        float(line.split("|")[1])
        for line in section.splitlines()
        if line.startswith("| 0")
    ]
    assert rates == pytest.approx([
        1.0 / point.workload_params["mean_send_interval"]
        for point in preset_spec("fig5").expand()
    ])
