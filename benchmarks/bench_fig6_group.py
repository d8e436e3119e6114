"""Figure 6: checkpoints per initiation under group communication.

Four groups of four processes, leaders-only intergroup traffic at
1/1000 (left graph) and 1/10000 (right graph) of the intragroup rate.

Paper shape to reproduce: both tentative and redundant-mutable counts
are lower than the point-to-point environment at the same rate, and the
10000x-ratio counts are lower than the 1000x ones.

The grid is the ``fig6`` preset; the point-to-point baseline is the
``fig5`` preset at the rates the two figures share.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_fig5_point_to_point import rate_of
from repro.campaign.engine import run_point, run_preset
from repro.campaign.spec import preset_spec

POINTS = preset_spec("fig6").expand()


def ratio_of(point):
    return point.workload_params["intra_inter_ratio"]


@pytest.mark.parametrize(
    "point", POINTS, ids=lambda p: f"{rate_of(p):g}-{ratio_of(p):g}"
)
def test_fig6_group(point):
    result = run_point(point)
    row = result.paper_row()
    rate, ratio = rate_of(point), ratio_of(point)
    print(f"\nFig6 rate={rate:6.3f} ratio=1/{int(ratio)}: {row}")
    assert row["tentative_mean"] <= 16.0


def test_fig6_shape_summary():
    """Group counts < point-to-point counts; 10000x < 1000x."""

    def sweep():
        group = run_preset("fig6", max_initiations=12, workers=2)
        p2p = run_preset("fig5", max_initiations=12, workers=2)
        group_rates = {rate_of(point) for point in group.points}
        rows = {"p2p": [
            result.paper_row()
            for point, result in zip(p2p.points, p2p.results())
            if rate_of(point) in group_rates
        ]}
        for point, result in zip(group.points, group.results()):
            rows.setdefault(ratio_of(point), []).append(result.paper_row())
        return rows

    rows = sweep()
    print("\nFig6 sweep (tentative means):")
    for key in (1_000.0, 10_000.0, "p2p"):
        print(f"  {key}: {[r['tentative_mean'] for r in rows[key]]}")
    assert len(rows["p2p"]) == len(rows[1_000.0]) == len(rows[10_000.0])
    mean = lambda rs: sum(r["tentative_mean"] for r in rs) / len(rs)
    assert mean(rows[10_000.0]) <= mean(rows[1_000.0]) + 0.5
    assert mean(rows[1_000.0]) < mean(rows["p2p"])
