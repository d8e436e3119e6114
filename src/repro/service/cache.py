"""Global content-addressed result cache.

Every :class:`~repro.campaign.spec.RunPoint` is already identified by
the SHA-256 hash of its canonical spec (:func:`repro.campaign.cache.spec_hash`)
— the point's *complete* identity: protocol + params, workload + params,
system overrides, run params, seed, max_events, replicate. Two points
with the same hash therefore describe byte-identical simulations, which
is what makes a **global** cache sound: a result computed for one
client's grid can be served to any other grid containing the same cell,
forever, with no coherence protocol. (See DESIGN.md "Cache-key
semantics" for what is deliberately *outside* the key.)

:class:`ResultCache` is that policy over the service's
:class:`~repro.service.db.ResultDB`: :meth:`partition` splits a
submitted grid into hits (served immediately from the store) and misses
(to be queued), and counts both in a service-level
:class:`~repro.obs.registry.MetricsRegistry`. Only successful records
are hits — a failed record means the compute never happened, so the
point must re-run. A partition asks the database once, for the whole
grid, and decodes no record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.campaign.spec import RunPoint
from repro.obs.registry import MetricsRegistry
from repro.service.db import ResultDB


@dataclass
class CachePartition:
    """One grid split into served-from-cache and must-compute points."""

    hits: List[RunPoint] = field(default_factory=list)
    misses: List[RunPoint] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachePartition {len(self.hits)} hit / {len(self.misses)} miss>"


class ResultCache:
    """Cache-hit policy + metrics over the service's result database."""

    def __init__(
        self, store: ResultDB, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("service.cache.hits")
        self._misses = self.metrics.counter("service.cache.misses")

    def partition(self, points: Sequence[RunPoint]) -> CachePartition:
        """Split a grid into cache hits and misses, counting both.

        Duplicate cells *within* the submission dedupe too: the first
        occurrence is a miss (or hit), later occurrences of the same
        hash are neither queued twice nor double-counted — they resolve
        to the same record when the job report assembles.
        """
        part = CachePartition()
        seen = set()
        hashes = [point.point_hash for point in points]
        ok = self.store.ok_records(hashes, decode=False)
        for point, point_hash in zip(points, hashes):
            if point_hash in seen:
                continue
            seen.add(point_hash)
            if point_hash in ok:
                part.hits.append(point)
                self._hits.inc()
            else:
                part.misses.append(point)
                self._misses.inc()
        return part

    def stats(self) -> dict:
        """Lifetime hit/miss counters (JSON-safe)."""
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
        }
