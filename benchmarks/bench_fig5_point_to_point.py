"""Figure 5: checkpoints per initiation vs message sending rate
(point-to-point communication, N = 16).

Paper shape to reproduce:

* tentative checkpoints per initiation grow with the send rate and
  saturate at N;
* redundant mutable checkpoints rise and then fall, always a small
  fraction (< 4 %) of the tentative count.

The sweep is the ``fig5`` preset — the very points ``repro-sim campaign
--preset fig5`` and ``repro-sim report`` run — so the printed rows line
up with EXPERIMENTS.md and with the CLI output.
"""

from __future__ import annotations

import pytest

from repro.campaign.engine import run_point, run_preset
from repro.campaign.spec import preset_spec

POINTS = preset_spec("fig5").expand()


def rate_of(point):
    """The swept x axis: messages per second per process."""
    return 1.0 / point.workload_params["mean_send_interval"]


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{rate_of(p):g}")
def test_fig5_point_to_point(benchmark, point):
    result = benchmark.pedantic(lambda: run_point(point), rounds=1, iterations=1)
    row = result.paper_row()
    benchmark.extra_info.update({"rate": rate_of(point), **row})
    print(f"\nFig5 rate={rate_of(point):6.3f} msg/s: {row}")
    # shape guards (paper): tentative bounded by N, redundant far below
    assert row["tentative_mean"] <= 16.0
    assert row["redundant_ratio"] <= 0.04 + 1e-9


def test_fig5_shape_summary(benchmark):
    """One campaign over the whole sweep asserting the paper's shape:
    tentative count is (weakly) increasing in the send rate."""

    def sweep():
        report = run_preset("fig5", max_initiations=12, workers=2)
        return [
            (rate_of(point), result.paper_row())
            for point, result in zip(report.points, report.results())
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nFig5 sweep:")
    for rate, row in rows:
        print(f"  rate={rate:6.3f}  {row}")
    tentative = [row["tentative_mean"] for _, row in rows]
    # weakly increasing up to saturation (tolerate sampling noise)
    assert tentative[-1] >= tentative[0]
    assert tentative[-1] >= 15.0  # saturates near N
    assert tentative[0] <= 8.0    # sparse dependencies at low rates
