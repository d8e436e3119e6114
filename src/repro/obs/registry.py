"""Metrics registry: named counters, gauges, and histograms.

Design constraints, in order:

* **Cheap on the hot path.** Instruments are plain objects with
  ``__slots__``; emitters look them up once (at construction) and then
  pay one attribute access plus a float add per update. One whose
  counter is listed only from its first update reads ``_counters``
  before it calls :meth:`MetricsRegistry.counter`.
* **Deterministic.** Snapshots are sorted dicts of JSON-safe values, so
  two runs that performed the same updates produce byte-identical
  serialized snapshots.
* **Mergeable.** :meth:`MetricsRegistry.merge` folds one registry (or
  snapshot) into another. Counter merge is addition and histogram merge
  is bucket-count addition, so the merge is associative and commutative
  on integer-valued observations — the property that makes campaign
  aggregation independent of worker count (workers merge in grid order
  regardless of completion order; see
  :meth:`repro.campaign.engine.CampaignReport.merged_metrics`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "default_bounds"]


def default_bounds() -> Tuple[float, ...]:
    """The default histogram bucket upper bounds: powers of two.

    Spans 2**-14 (~61 us) through 2**16 (~18 h) — wide enough for both
    message latencies and checkpoint durations in simulated seconds.
    """
    return tuple(2.0 ** k for k in range(-14, 17))


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative by convention)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """A named value that can move both ways (queue depth, clock, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum (merge-friendly gauge use)."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max moments.

    Bucket ``i`` counts observations ``v <= bounds[i]`` (first matching
    bound); values above the last bound land in the overflow bucket.
    Percentiles are estimated as the upper bound of the bucket where the
    cumulative count crosses the rank, clamped to the observed
    ``[minimum, maximum]`` — so ``percentile(0) == minimum`` and
    ``percentile(100) == maximum`` exactly.

    ``sum_sq`` is tracked so :attr:`variance`/:attr:`stdev` are exact
    (not bucket-estimated) and merge exactly.
    """

    __slots__ = (
        "name", "bounds", "bucket_counts", "count", "total", "sum_sq",
        "minimum", "maximum",
    )

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else default_bounds()
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {self.bounds!r}")
        # one bucket per bound plus the overflow bucket
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        m2 = self.sum_sq - self.total * self.total / self.count
        return max(m2, 0.0) / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, p: float) -> float:
        """Bucket-estimated p-th percentile, p in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        if self.count == 0:
            return 0.0
        if p == 0.0:
            return self.minimum
        rank = math.ceil(p / 100.0 * self.count)
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            cumulative += n
            if cumulative >= rank:
                estimate = self.bounds[i] if i < len(self.bounds) else self.maximum
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - rank <= count always hits

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bounds must match)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.name!r} vs {other.name!r}"
            )
        self.count += other.count
        self.total += other.total
        self.sum_sq += other.sum_sq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (infinities encoded as None)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "sum_sq": self.sum_sq,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, Any]) -> "Histogram":
        hist = cls(name, bounds=data["bounds"])
        hist.bucket_counts = list(data["bucket_counts"])
        hist.count = data["count"]
        hist.total = data["total"]
        hist.sum_sq = data["sum_sq"]
        hist.minimum = math.inf if data["min"] is None else data["min"]
        hist.maximum = -math.inf if data["max"] is None else data["max"]
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4f}>"


class MetricsRegistry:
    """Named instruments for one simulation run (or one aggregate)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) -----------------------
    def counter(self, name: str) -> Counter:
        """The counter instrument ``name`` (created at zero)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge instrument ``name`` (created at zero)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram instrument ``name`` (created empty).

        ``bounds`` only applies at creation; a later lookup with
        different bounds raises to catch silent bucket mismatches.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds=bounds)
        elif bounds is not None and tuple(bounds) != instrument.bounds:
            raise ValueError(f"histogram {name!r} exists with different bounds")
        return instrument

    # -- reads -------------------------------------------------------------
    def value(self, name: str) -> float:
        """Current value of counter or gauge ``name`` (0.0 if absent)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return 0.0

    def counters(self) -> Dict[str, float]:
        """A flat snapshot of all counter values, sorted by name."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def names(self) -> Tuple[str, ...]:
        """All instrument names, sorted."""
        return tuple(
            sorted({*self._counters, *self._gauges, *self._histograms})
        )

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe, deterministically ordered dump of every instrument."""
        return {
            "counters": self.counters(),
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).value = value
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).value = value
        for name, hist in data.get("histograms", {}).items():
            registry._histograms[name] = Histogram.from_dict(name, hist)
        return registry

    def merge(self, other: Union["MetricsRegistry", Dict[str, Any]]) -> None:
        """Fold another registry (or a snapshot dict) into this one.

        Counters and histograms add; gauges combine by maximum (the only
        merge that is order-independent — gauges that need last-writer
        semantics should not be aggregated across runs).
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_snapshot(other)
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).max(gauge.value)
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = Histogram.from_dict(name, hist.to_dict())
            else:
                mine.merge(hist)

    @classmethod
    def merged(
        cls, snapshots: Iterable[Union["MetricsRegistry", Dict[str, Any]]]
    ) -> "MetricsRegistry":
        """A fresh registry holding the merge of ``snapshots`` in order."""
        registry = cls()
        for snap in snapshots:
            registry.merge(snap)
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
