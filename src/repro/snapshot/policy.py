"""Declarative snapshot triggers (MUSCLE3-style).

A :class:`SnapshotPolicy` says *when* the snapshotter fires, not *how*:

* ``every_events`` — every N dispatched kernel events;
* ``every_sim_seconds`` — whenever simulated time advances past the
  next multiple-of-interval mark since the last snapshot;
* ``wallclock_seconds`` — at least this much real time since
  ``install()`` or the last snapshot, read every
  :data:`DEFAULT_CHECK_EVERY` events: a run shorter than the interval
  writes nothing, a longer one at most one snapshot per interval. This
  is how campaign and service points are insured against a crash
  (``repro.campaign.engine.SNAPSHOT_WALL_SECONDS``): the price is paid
  in real seconds lost, not in events.

All three are evaluated by one between-events kernel hook (see
``Simulator.set_between_events_hook``): no trigger ever schedules an event,
consumes a seq number, or consults the schedule policy, so a run with
snapshotting enabled is byte-identical — trace hash, metrics, event
count — to the same run without it. Time-based triggers therefore fire
at the first hook check *after* the deadline passes, which for a
simulator is exact enough: state only changes when events fire, so
there is nothing new to capture between events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError

#: how often (in events) the hook re-evaluates time-based triggers
DEFAULT_CHECK_EVERY = 64


@dataclass(frozen=True)
class SnapshotPolicy:
    """When to take simulator snapshots.

    Any combination of triggers may be set; with none set the policy is
    manual-only (snapshots happen only via ``Snapshotter.take()``).
    ``keep`` bounds on-disk retention: after each write, only the newest
    ``keep`` snapshots of the run are kept (``None`` keeps everything).
    """

    every_events: Optional[int] = None
    every_sim_seconds: Optional[float] = None
    wallclock_seconds: Optional[float] = None
    keep: Optional[int] = None

    def __post_init__(self) -> None:
        if self.every_events is not None and self.every_events < 1:
            raise ConfigurationError(
                f"every_events must be >= 1, got {self.every_events!r}"
            )
        if self.every_sim_seconds is not None and self.every_sim_seconds <= 0:
            raise ConfigurationError(
                f"every_sim_seconds must be > 0, got {self.every_sim_seconds!r}"
            )
        if self.wallclock_seconds is not None and self.wallclock_seconds <= 0:
            raise ConfigurationError(
                f"wallclock_seconds must be > 0, got {self.wallclock_seconds!r}"
            )
        if self.keep is not None and self.keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {self.keep!r}")

    @property
    def triggered(self) -> bool:
        """Whether any automatic trigger is configured."""
        return (
            self.every_events is not None
            or self.every_sim_seconds is not None
            or self.wallclock_seconds is not None
        )

    def check_every(self) -> int:
        """Hook granularity: how many events between trigger checks.

        A pure event-count policy checks exactly on its own period;
        time-based triggers piggyback on a finer default so their
        latency is bounded by :data:`DEFAULT_CHECK_EVERY` events.
        """
        if self.every_events is not None:
            if self.every_sim_seconds is None and self.wallclock_seconds is None:
                return self.every_events
            return min(self.every_events, DEFAULT_CHECK_EVERY)
        return DEFAULT_CHECK_EVERY

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SnapshotPolicy":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
