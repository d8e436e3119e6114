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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Event": "events",
    "RandomStreams": "rng",
    "ShardPlan": "shard",
    "ShardedSimulator": "shard",
    "Simulator": "kernel",
    "TraceLog": "trace",
    "TraceRecord": "trace",
})
