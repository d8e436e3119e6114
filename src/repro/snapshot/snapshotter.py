"""The snapshotter: policy evaluation, writing, listing, resuming.

:class:`Snapshotter` binds a runner to a :class:`SnapshotPolicy` and a
directory (or to memory), arms the kernel's between-events hook, and
takes snapshots when a trigger fires. :class:`SnapshotStore` lists and
picks snapshots in a directory; :func:`resume_run` turns a ``.rsnap``
path back into a live, continuable simulation.
"""

from __future__ import annotations

import os
from time import monotonic
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import SnapshotError
from repro.snapshot.format import (
    SNAPSHOT_SUFFIX,
    SnapshotMeta,
    read_meta,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.policy import SnapshotPolicy
from repro.snapshot.state import SimulationImage, capture, restore

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.runner import ExperimentRunner


class Snapshotter:
    """Take policy-driven snapshots of one run.

    Parameters
    ----------
    runner:
        The experiment runner whose object graph is captured.
    policy:
        Trigger configuration; with no triggers set only explicit
        :meth:`take` calls snapshot.
    directory:
        Where ``.rsnap`` files go. ``None`` keeps snapshots in memory
        (``self.memory``), with no disk round-trip.
    label:
        Free-form tag stamped into each snapshot's header.
    """

    def __init__(
        self,
        runner: "ExperimentRunner",
        policy: Optional[SnapshotPolicy] = None,
        directory: Optional[str] = None,
        label: str = "",
    ) -> None:
        self.runner = runner
        self.policy = policy if policy is not None else SnapshotPolicy()
        self.directory = directory
        self.label = label
        self.seq = 0
        #: paths written so far, oldest first (disk mode)
        self.taken: List[str] = []
        #: (meta, payload) pairs, oldest first (memory mode)
        self.memory: List[Tuple[SnapshotMeta, bytes]] = []
        sim = runner.system.sim
        self._last_events = sim.events_processed
        self._next_sim_time = (
            None
            if self.policy.every_sim_seconds is None
            else sim.now + self.policy.every_sim_seconds
        )
        self._last_wall: Optional[float] = None

    # -- arming ----------------------------------------------------------
    def install(self) -> None:
        """Arm the kernel hook; call once before (re)entering the run."""
        self._last_wall = monotonic()
        if self.policy.triggered:
            self.runner.system.sim.set_between_events_hook(
                "snapshot", self._check, self.policy.check_every()
            )

    def uninstall(self) -> None:
        """Disarm the kernel hook (subsequent runs pay zero cost again)."""
        self.runner.system.sim.set_between_events_hook("snapshot", None)

    # -- trigger evaluation (runs between kernel events) -----------------
    def _check(self) -> None:
        policy = self.policy
        sim = self.runner.system.sim
        if (
            policy.every_events is not None
            and sim.events_processed - self._last_events >= policy.every_events
        ):
            self.take("events")
            return
        if (
            self._next_sim_time is not None
            and sim.now >= self._next_sim_time
        ):
            self.take("sim_time")
            return
        if policy.wallclock_seconds is not None:
            now = monotonic()
            if self._last_wall is None:
                self._last_wall = now
            elif now - self._last_wall >= policy.wallclock_seconds:
                self.take("wallclock")

    # -- capture ---------------------------------------------------------
    def take(self, reason: str = "manual") -> Optional[str]:
        """Snapshot now. Returns the written path (``None`` in memory mode).

        Safe to call only between events — from the kernel hook, or
        from outside :meth:`ExperimentRunner.run` entirely.
        """
        sim = self.runner.system.sim
        system = self.runner.system
        payload = capture(self.runner, snapshotter=self)
        meta = SnapshotMeta(
            seq=self.seq,
            reason=reason,
            sim_time=sim.now,
            events_processed=sim.events_processed,
            protocol=system.protocol.name,
            n_processes=system.config.n_processes,
            seed=system.config.seed,
            label=self.label,
        )
        self.seq += 1
        self._last_events = sim.events_processed
        if self._next_sim_time is not None:
            assert self.policy.every_sim_seconds is not None
            while self._next_sim_time <= sim.now:
                self._next_sim_time += self.policy.every_sim_seconds
        if self.policy.wallclock_seconds is not None:
            self._last_wall = monotonic()
        if self.directory is None:
            self.memory.append((meta, payload))
            return None
        path = os.path.join(
            self.directory,
            f"snap-{meta.seq:05d}-ev{meta.events_processed:09d}{SNAPSHOT_SUFFIX}",
        )
        write_snapshot(path, meta, payload)
        self.taken.append(path)
        self._prune()
        return path

    def _prune(self) -> None:
        keep = self.policy.keep
        if keep is None:
            return
        while len(self.taken) > keep:
            stale = self.taken.pop(0)
            try:
                os.unlink(stale)
            except OSError:
                pass  # already gone (e.g. cleaned up externally)

    # -- pickling (a snapshotter rides inside its own snapshots) ---------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        # prior payloads would nest quadratically; wallclock is rebased
        # on install
        state["memory"] = []
        state["_last_wall"] = None
        return state


class SnapshotInfo:
    """One snapshot on disk: its path plus parsed header."""

    __slots__ = ("path", "meta")

    def __init__(self, path: str, meta: SnapshotMeta) -> None:
        self.path = path
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SnapshotInfo {self.path} ev={self.meta.events_processed}>"


class SnapshotStore:
    """List and pick snapshots in a directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def list(self) -> List[SnapshotInfo]:
        """All readable snapshots, oldest first (by event count, seq).

        Files with unreadable headers are skipped: after a crash the
        directory must still be usable even if something unrelated
        polluted it. (Torn writes cannot occur — writes are atomic.)
        """
        if not os.path.isdir(self.directory):
            return []
        infos: List[SnapshotInfo] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(SNAPSHOT_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                infos.append(SnapshotInfo(path, read_meta(path)))
            except SnapshotError:
                continue
        infos.sort(key=lambda info: (info.meta.events_processed, info.meta.seq))
        return infos

    def latest(self) -> Optional[SnapshotInfo]:
        """The most advanced snapshot, or ``None`` for an empty store."""
        infos = self.list()
        return infos[-1] if infos else None


def resume_run(path: str) -> SimulationImage:
    """Load ``path``, verify integrity, and rebuild the live simulation.

    The returned image's ``runner.resume()`` continues the run; the
    result it returns is byte-identical (trace hash, metrics) to the
    uninterrupted run's.
    """
    _, payload = read_snapshot(path)
    return restore(payload)
