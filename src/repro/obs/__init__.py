"""Observability: metrics registry, kernel profiler, forensics, telemetry.

The simulator is judged by counted quantities — checkpoints forced,
system messages, blocking time (the paper's Figs. 5/6 and Table 1) —
and by how fast the kernel dispatches events. This package gives both
first-class infrastructure:

* :mod:`repro.obs.registry` — named instruments (counters, gauges,
  histograms) with deterministic, losslessly serializable snapshots and
  an associative merge, so per-worker metrics fold into campaign-level
  aggregates bit-identically for any worker count;
* :mod:`repro.obs.profiler` — span-based profiling of the DES kernel
  (per-event-kind timing, dispatch counts, heap statistics), exposed via
  ``repro-sim profile``;
* :mod:`repro.obs.forensics` — causal wave forensics: reconstructs each
  checkpoint wave from the trace, explains every forced checkpoint as a
  happened-before chain back to the initiator, and compares the forced
  set against the minimality checker's justified closure. Exposed via
  ``repro-sim inspect``;
* :mod:`repro.obs.timeseries` — deterministic sim-time-windowed sampling
  of selected registry series into per-window delta rows (bounded ring,
  JSONL/TSV export, worker-count-independent merge), riding the kernel's
  between-events hook so it is observably invisible to the simulation;
* :mod:`repro.obs.prom` — the stdlib-only Prometheus text exposition
  renderer behind the service's ``GET /metrics.prom``.

The kernel benchmark harness lives in ``benchmarks/bench_kernel.py``,
outside the runtime.

Instrument naming scheme (see docs/API.md): dotted ``layer.component``
paths for infrastructure metrics (``net.wireless.bytes``,
``kernel.events``); the paper's protocol-level counters keep their
historical flat names (``system_messages``, ``mutable_checkpoints``)
because they are part of the result wire format.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Counter": "registry",
    "EventGraph": "forensics",
    "ForensicReport": "forensics",
    "Gauge": "registry",
    "Histogram": "registry",
    "KernelProfiler": "profiler",
    "MetricsRegistry": "registry",
    "SpanStat": "profiler",
    "TimeseriesSampler": "timeseries",
    "WaveReport": "forensics",
    "build_forensics": "forensics",
    "merge_timeseries": "timeseries",
    "render_prometheus": "prom",
    "save_timeseries": "timeseries",
})
