"""One-command regeneration of the full paper-vs-measured report.

``repro-sim report`` (or :func:`generate_report`) runs every experiment
— Figs. 1–6, Table 1, and the ablations — and renders a markdown
document in the same shape as ``EXPERIMENTS.md``, so the repository's
results can be refreshed after any change with a single command.

Figs. 5/6 and Table 1 are the preset catalogue's campaigns
(``repro-sim campaign --preset fig5|fig6|table1`` runs the same points);
``ReportScale`` only sets how many initiations each point runs for:
``quick`` finishes in seconds, ``full`` is the sample size the committed
EXPERIMENTS.md was produced with.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.ascii_chart import render_histogram
from repro.analysis.comparison import (
    CostParameters,
    analytic_table,
    measured_row,
)
from repro.analysis.minimality import check_minimality
from repro.campaign.engine import build_point_runtime, run_point, run_preset
from repro.campaign.spec import RunPoint, preset_spec


@dataclass(frozen=True)
class ReportScale:
    """Sample size for one report run: initiations per data point.

    What is run — rates, ratios, protocols, seeds — is the preset
    catalogue's business (:data:`repro.campaign.spec.PRESETS`).
    """

    initiations: int = 12

    @classmethod
    def quick(cls) -> "ReportScale":
        return cls(initiations=8)

    @classmethod
    def full(cls) -> "ReportScale":
        return cls(initiations=42)


def _preset_results(name: str, scale: ReportScale):
    """(point, result) pairs of a paper preset at the report's scale."""
    report = run_preset(name, max_initiations=scale.initiations)
    return list(zip(report.points, report.results()))


def _rate(point: RunPoint) -> float:
    return 1.0 / point.workload_params["mean_send_interval"]


def _fig5_section(scale: ReportScale) -> List[str]:
    lines = ["## Figure 5 — point-to-point communication", ""]
    lines.append("| rate (msg/s) | tentative | redundant mutable | ratio |")
    lines.append("|---:|---:|---:|---:|")
    for point, result in _preset_results("fig5", scale):
        lines.append(
            f"| {_rate(point):g} | {result.tentative_summary().mean:.2f} "
            f"| {result.redundant_mutable_summary().mean:.3f} "
            f"| {result.redundant_ratio:.4f} |"
        )
    lines.append("")
    return lines


def _fig6_section(scale: ReportScale) -> List[str]:
    lines = ["## Figure 6 — group communication", ""]
    by_rate: dict = {}
    for point, result in _preset_results("fig6", scale):
        ratio = point.workload_params["intra_inter_ratio"]
        by_rate.setdefault(_rate(point), {})[ratio] = result
    ratios = sorted({ratio for row in by_rate.values() for ratio in row})
    lines.append(
        "| rate | "
        + " | ".join(f"{r:g}x tentative | {r:g}x redundant" for r in ratios)
        + " |"
    )
    lines.append("|---:|" + "---:|---:|" * len(ratios))
    for rate, row in sorted(by_rate.items()):
        cells = " | ".join(
            f"{row[r].tentative_summary().mean:.2f} "
            f"| {row[r].redundant_mutable_summary().mean:.3f}"
            for r in ratios
        )
        lines.append(f"| {rate:g} | {cells} |")
    lines.append("")
    return lines


def _table1_section(scale: ReportScale) -> List[str]:
    lines = ["## Table 1 — algorithm comparison", ""]
    lines.append(
        "| algorithm | checkpoints | blocking (proc*s) | output commit (s) "
        "| messages | distributed |"
    )
    lines.append("|---|---:|---:|---:|---:|---|")
    rows = {}
    for _, result in _preset_results("table1", scale):
        row = rows[result.protocol] = measured_row(result)
        lines.append(
            f"| {row.algorithm} | {row.checkpoints:.2f} | {row.blocking_time:.1f} "
            f"| {row.output_commit_delay:.2f} | {row.messages:.1f} "
            f"| {'yes' if row.distributed else 'no'} |"
        )
    lines.append("")
    n_min = rows["mutable"].checkpoints
    lines.append(
        f"Paper formulas at measured N_min = {n_min:.1f}: "
        + "; ".join(
            f"{r.algorithm}: msgs={r.messages:.1f}, commit={r.output_commit_delay:.1f}s"
            for r in analytic_table(CostParameters(n=16, n_min=n_min, n_dep=4.0))
        )
    )
    lines.append("")
    return lines


def _figures_section() -> List[str]:
    from repro.scenarios.figures import all_figures

    lines = ["## Figures 1–4 — deterministic scenarios", ""]
    lines.append("| figure | consistent | orphans | notes |")
    lines.append("|---|---|---:|---|")
    for result in all_figures():
        lines.append(
            f"| {result.figure} | {result.consistent} "
            f"| {len(result.orphan_msg_ids)} | {result.notes} |"
        )
    lines.append("")
    return lines


def _minimality_section(scale: ReportScale) -> List[str]:
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 100.0},
        run_params={
            "max_initiations": min(scale.initiations, 8),
            "warmup_initiations": 1,
        },
        seed=11,
    )
    system, _, runner = build_point_runtime(point)
    runner.run(max_events=point.max_events)
    reports = check_minimality(system.sim.trace)
    minimal = sum(1 for r in reports if r.minimal)
    return [
        "## Theorem 3 — minimality (independent z-dependency closure)",
        "",
        f"{minimal}/{len(reports)} committed initiations took exactly the "
        "required process set.",
        "",
    ]


def _observability_section(scale: ReportScale) -> List[str]:
    """Metrics of one representative run, straight from the registry.

    Everything here is read from ``RunResult.metrics`` (the
    :mod:`repro.obs` snapshot carried by every result), never from
    protocol or network internals — the same numbers a campaign or a
    JSON consumer would see.
    """
    # Table 1's mutable run with sampling on (observably invisible, so
    # the counters are that row's): the result also carries windowed
    # telemetry and the wave-lifecycle latency/blocked-time histograms.
    point = preset_spec("table1", scale.initiations).expand()[-1]
    result = run_point(dataclasses.replace(
        point, system_params={**point.system_params, "timeseries_window": 60.0}
    ))
    snapshot = result.metrics
    lines = ["## Observability — metrics registry snapshot", ""]
    lines.append("| counter | value |")
    lines.append("|---|---:|")
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"| `{name}` | {value:g} |")
    lines.append("")
    histograms = snapshot.get("histograms", {})
    blocking = histograms.get("blocking_time")
    if blocking:
        lines.append("```")
        lines.append(
            render_histogram(blocking, title="blocking_time (seconds)")
        )
        lines.append("```")
        lines.append("")
    latency = histograms.get("wave.latency_seconds")
    if latency:
        lines.append("```")
        lines.append(
            render_histogram(
                latency, title="wave.latency_seconds (initiation -> commit)"
            )
        )
        lines.append("```")
        lines.append("")
    rows = result.timeseries.get("rows", [])
    if rows:
        lines.append(
            f"Windowed telemetry: {len(rows)} active windows of "
            f"{result.timeseries['window']:g} sim-seconds "
            f"(`repro-sim run --timeseries-out` exports these)."
        )
        lines.append("")
    return lines


def generate_report(scale: Optional[ReportScale] = None) -> str:
    """Run everything and return the markdown report."""
    scale = scale if scale is not None else ReportScale()
    started = time.time()
    sections: List[str] = [
        "# Mutable Checkpoints — regenerated experiment report",
        "",
        f"Scale: {scale.initiations} initiations/point.",
        "",
    ]
    sections += _fig5_section(scale)
    sections += _fig6_section(scale)
    sections += _table1_section(scale)
    sections += _figures_section()
    sections += _minimality_section(scale)
    sections += _observability_section(scale)
    sections.append(f"_Generated in {time.time() - started:.1f} s wall time._")
    sections.append("")
    return "\n".join(sections)


def write_report(path: str, scale: Optional[ReportScale] = None) -> str:
    """Generate and write the report; returns the markdown."""
    report = generate_report(scale)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report)
    return report
