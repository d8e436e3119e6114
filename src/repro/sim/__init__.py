"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop.
* :class:`~repro.sim.shard.ShardedSimulator` — the same loop plus a
  cross-shard traffic report (``SystemConfig.shards > 1``).
* :class:`~repro.sim.events.Event` — the cancellable handle ``schedule`` returns.
* :class:`~repro.sim.rng.RandomStreams` — named seeded randomness.
* :class:`~repro.sim.trace.TraceLog` — structured ground-truth log.

Counters, gauges and histograms live in
:class:`repro.obs.registry.MetricsRegistry` (``sim.metrics``).
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.shard import ShardPlan, ShardedSimulator
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "RandomStreams",
    "ShardPlan",
    "ShardedSimulator",
    "Simulator",
    "TraceLog",
    "TraceRecord",
]
