"""Verification and analysis: consistency, vector clocks, statistics."""

from repro.analysis.comparison import (
    AlgorithmCosts,
    CostParameters,
    analytic_table,
    elnozahy_costs,
    format_table,
    koo_toueg_costs,
    measured_row,
    mutable_costs,
)
from repro.analysis.consistency import (
    Orphan,
    assert_line_consistent,
    check_channel_counts,
    find_orphans,
    latest_permanent_line,
)
from repro.analysis.energy import DozeManager, EnergyModel, EnergyParams, HostEnergy
from repro.analysis.metrics import InitiationStats, committed_stats, per_initiation_stats
from repro.analysis.minimality import (
    MinimalityReport,
    check_minimality,
    must_checkpoint_set,
)
from repro.analysis.stats import Summary, required_samples, summarize
from repro.analysis.trace_index import TraceIndex
from repro.analysis.vector_clock import (
    VectorClock,
    concurrent,
    happened_before,
)

__all__ = [
    "AlgorithmCosts",
    "CostParameters",
    "DozeManager",
    "EnergyModel",
    "EnergyParams",
    "HostEnergy",
    "InitiationStats",
    "MinimalityReport",
    "check_minimality",
    "must_checkpoint_set",
    "Orphan",
    "Summary",
    "TraceIndex",
    "VectorClock",
    "analytic_table",
    "assert_line_consistent",
    "check_channel_counts",
    "committed_stats",
    "concurrent",
    "elnozahy_costs",
    "find_orphans",
    "format_table",
    "happened_before",
    "koo_toueg_costs",
    "latest_permanent_line",
    "measured_row",
    "mutable_costs",
    "per_initiation_stats",
    "required_samples",
    "summarize",
]
