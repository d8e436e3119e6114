"""Deterministic sim-time-windowed telemetry for live runs.

End-of-run metric snapshots say *what* a run cost; they cannot say
*when*. :class:`TimeseriesSampler` closes that gap: once per sim-time
window it snapshots a selected set of :class:`~repro.obs.registry.
MetricsRegistry` series (kernel event throughput, wired/wireless bytes,
checkpoint counts, ...) into a bounded ring of per-window **delta** rows
that travel on the :class:`~repro.core.results.RunResult` and stream out
of the campaign service while a job is still running.

Determinism contract
--------------------
The sampler rides the kernel's between-events hook (the same mechanism
as :class:`repro.snapshot.Snapshotter`) and only ever *reads* simulation
state — it never schedules events, consumes sequence numbers, or touches
the trace. Consequences, both pinned by
``tests/integration/test_timeseries_determinism.py``:

* disabled (``SystemConfig.timeseries_window is None``) it does not even
  exist and no hook is armed — bit-identical golden hashes, one local
  test per event in the kernel loop;
* enabled, the simulation's trace and event sequence are unchanged, and
  because the event sequence is deterministic the emitted rows are
  byte-identical for a given (config, seed).

Rows hold per-window deltas, so merging runs is per-window addition —
associative and commutative, which makes campaign-level aggregation
independent of worker count exactly like
:meth:`~repro.campaign.engine.CampaignReport.merged_metrics`.

Wave-lifecycle instrumentation
------------------------------
While a sampler is installed it also derives per-wave series from the
lifecycle every protocol reports to its observers at any trace level
(``initiation``/``commit``/``abort``/``tentative``): wave latency and
per-wave blocked time histograms, plus ``wave.commits``/``wave.aborts``/
``wave.forced_checkpoints`` counters. These instruments exist *only*
when sampling is enabled, so a sampler-off run's metrics snapshot — and
therefore its ``metrics_sha256`` golden — is unchanged.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_CHECK_EVERY",
    "DEFAULT_SERIES",
    "TimeseriesSampler",
    "dump_timeseries_jsonl",
    "dump_timeseries_tsv",
    "merge_timeseries",
    "save_timeseries",
]

#: counters sampled per window (deltas); gauges would need last-writer
#: merge semantics and are deliberately excluded
DEFAULT_SERIES: Tuple[str, ...] = (
    "computation_messages",
    "mutable_checkpoints",
    "net.wired.bytes",
    "net.wireless.bytes",
    "stable_transfers",
    "system_messages",
    "wave.commits",
    "wave.forced_checkpoints",
)

#: events between window-boundary checks; one float compare per check,
#: so the cadence only bounds how far past a boundary a row can land
DEFAULT_CHECK_EVERY = 32

#: ring capacity in rows; older rows are dropped (and counted)
DEFAULT_CAPACITY = 4096


class TimeseriesSampler:
    """Samples selected registry series once per sim-time window.

    Parameters
    ----------
    system:
        The :class:`~repro.core.system.MobileSystem` to observe (any
        object with ``sim``, ``metrics``, ``processes`` and ``protocol``
        works).
    window:
        Sim seconds per row. Each row holds the *delta* of every sampled
        series over one window, keyed by the integer window index ``w``.
        Windows with no activity produce no row.
    series:
        Counter names to sample; unknown names read as 0 until the
        counter first exists.
    capacity:
        Ring bound; the oldest rows are evicted (``dropped`` counts them).
    check_every:
        Kernel-hook cadence in events.

    The sampler pickles with the system (snapshot/resume), and so do its
    kernel hook and its place among the protocol's observers.
    """

    def __init__(
        self,
        system: Any,
        window: float,
        series: Sequence[str] = DEFAULT_SERIES,
        capacity: int = DEFAULT_CAPACITY,
        check_every: int = DEFAULT_CHECK_EVERY,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every!r}")
        self.system = system
        self.window = float(window)
        self.series: Tuple[str, ...] = tuple(series)
        self.capacity = int(capacity)
        self.check_every = int(check_every)
        self.rows: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self.dropped = 0
        registry = system.metrics
        # Wave-lifecycle instruments, derived from the protocol's observers.
        # Created here — not in the protocols — so they only exist while
        # a sampler does and sampler-off metrics snapshots are unchanged.
        self._m_commits = registry.counter("wave.commits")
        self._m_aborts = registry.counter("wave.aborts")
        self._m_forced = registry.counter("wave.forced_checkpoints")
        self._m_latency = registry.histogram("wave.latency_seconds")
        self._m_blocked = registry.histogram("wave.blocked_seconds")
        self._initiated_at: Dict[Any, float] = {}
        self._blocked_total = 0.0
        self._epoch = int(system.sim.now // self.window)
        self._last_events = system.sim.events_processed
        self._last_values = self._cumulative()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Arm the kernel hook and observe the protocol's waves."""
        self.system.sim.set_between_events_hook(
            "timeseries", self._on_hook, self.check_every
        )
        self.system.protocol.observers.append(self._on_wave)

    def uninstall(self) -> None:
        """Disarm the kernel hook and stop observing waves."""
        self.system.sim.set_between_events_hook("timeseries", None)
        self.system.protocol.observers.remove(self._on_wave)

    # -- sampling ----------------------------------------------------------
    def _cumulative(self) -> Tuple[float, ...]:
        value = self.system.metrics.value
        return tuple(value(name) for name in self.series)

    def _on_hook(self) -> None:
        epoch = int(self.system.sim.now // self.window)
        if epoch > self._epoch:
            self._emit(epoch)

    def _emit(self, new_epoch: int) -> None:
        sim = self.system.sim
        values = self._cumulative()
        events = sim.events_processed
        last = self._last_values
        row = {
            "w": self._epoch,
            "t": self._epoch * self.window,
            "dt": self.window,
            "events": events - self._last_events,
            "series": {
                name: values[i] - last[i] for i, name in enumerate(self.series)
            },
        }
        if len(self.rows) == self.capacity:
            self.dropped += 1
        self.rows.append(row)
        self._epoch = new_epoch
        self._last_events = events
        self._last_values = values

    def flush(self) -> None:
        """Emit the final partial window, if anything happened in it.

        Idempotent: a second flush with no intervening activity emits
        nothing. Results collection calls this before reading
        :meth:`export`.
        """
        sim = self.system.sim
        if (
            sim.events_processed != self._last_events
            or self._cumulative() != self._last_values
        ):
            self._emit(int(sim.now // self.window) + 1)

    # -- wave lifecycle ----------------------------------------------------
    def _on_wave(self, now: float, kind: str, fields: Dict[str, Any]) -> None:
        if kind == "tentative":
            trigger = fields.get("trigger")
            if trigger is not None and trigger.pid != fields["pid"]:
                self._m_forced.inc()
        elif kind == "initiation":
            self._initiated_at[fields["trigger"]] = now
        elif kind == "commit":
            self._m_commits.inc()
            started = self._initiated_at.pop(fields.get("trigger"), None)
            if started is not None:
                self._m_latency.observe(now - started)
            blocked = sum(
                p.total_blocked_time for p in self.system.processes.values()
            )
            self._m_blocked.observe(blocked - self._blocked_total)
            self._blocked_total = blocked
        elif kind == "abort":
            self._m_aborts.inc()
            self._initiated_at.pop(fields.get("trigger"), None)

    # -- export ------------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """The sampled series as a JSON-safe timeseries document.

        ``{"window": float, "dropped": int, "rows": [row, ...]}`` with
        rows in emission order. This is the shape carried on
        ``RunResult.timeseries`` and accepted by :func:`merge_timeseries`.
        """
        return {
            "window": self.window,
            "dropped": self.dropped,
            "rows": [
                {
                    "w": row["w"],
                    "t": row["t"],
                    "dt": row["dt"],
                    "events": row["events"],
                    "series": dict(row["series"]),
                }
                for row in self.rows
            ],
        }


def merge_timeseries(snapshots: Iterable[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Fold per-run timeseries documents into one.

    Rows align on ``(dt, w)`` and their deltas add, so the merge is
    associative and commutative — campaign aggregation is independent of
    worker count, exactly like ``MetricsRegistry.merge``. Empty or
    ``None`` inputs are skipped; all-empty input merges to ``{}``.
    """
    merged: Dict[Tuple[float, int], Dict[str, Any]] = {}
    window: Optional[float] = None
    dropped = 0
    for snap in snapshots:
        if not snap:
            continue
        if window is None:
            window = snap.get("window")
        dropped += snap.get("dropped", 0)
        for row in snap.get("rows", ()):
            key = (row["dt"], row["w"])
            acc = merged.get(key)
            if acc is None:
                merged[key] = {
                    "w": row["w"],
                    "t": row["t"],
                    "dt": row["dt"],
                    "events": row["events"],
                    "series": dict(row["series"]),
                }
            else:
                acc["events"] += row["events"]
                series = acc["series"]
                for name, value in row["series"].items():
                    series[name] = series.get(name, 0.0) + value
    if window is None:
        return {}
    return {
        "window": window,
        "dropped": dropped,
        "rows": [merged[key] for key in sorted(merged)],
    }


# -- serialization ---------------------------------------------------------
def _canonical_row(row: Dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def dump_timeseries_jsonl(timeseries: Dict[str, Any], stream: IO[str]) -> int:
    """Write one canonical-JSON row per line; returns the row count."""
    count = 0
    for row in timeseries.get("rows", ()):
        stream.write(_canonical_row(row) + "\n")
        count += 1
    return count


def dump_timeseries_tsv(timeseries: Dict[str, Any], stream: IO[str]) -> int:
    """Write a TSV table (header + one line per row); returns the row count."""
    rows = list(timeseries.get("rows", ()))
    names: List[str] = sorted({name for row in rows for name in row["series"]})
    stream.write("\t".join(["w", "t", "dt", "events"] + names) + "\n")
    for row in rows:
        series = row["series"]
        cells = [
            str(row["w"]),
            repr(float(row["t"])),
            repr(float(row["dt"])),
            str(row["events"]),
        ]
        cells.extend(repr(float(series.get(name, 0.0))) for name in names)
        stream.write("\t".join(cells) + "\n")
    return len(rows)


def save_timeseries(timeseries: Dict[str, Any], path: str) -> int:
    """Write to ``path``; ``.tsv`` selects TSV, anything else JSONL."""
    fmt = "tsv" if str(path).endswith(".tsv") else "jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "tsv":
            return dump_timeseries_tsv(timeseries, handle)
        return dump_timeseries_jsonl(timeseries, handle)
