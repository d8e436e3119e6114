"""Experiment runner: schedules initiations and collects results.

Reproduces the paper's experimental procedure (§5.1):

* a checkpoint is scheduled at each process with a fixed interval
  (900 s); the first one is staggered uniformly within one interval;
* if a process takes a checkpoint earlier (because it was forced to by
  someone else's initiation), its next initiation moves to one interval
  after that checkpoint;
* at most one checkpointing is in progress at a time (§3.3's
  presentation assumption): initiations falling due while one is active
  are deferred and fired right after the active one commits
  (``RunConfig.serialize_initiations=False`` lifts it, for §3.5's hazard).

A run without a time limit ends by committing, or in a
``ConfigurationError`` once no commit has come for
``(max_initiations + 1) * checkpoint_interval`` of simulated time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.analysis.metrics import committed_stats
from repro.checkpointing.types import Trigger
from repro.core.config import RunConfig
from repro.core.results import RunResult
from repro.core.system import MobileSystem
from repro.errors import ConfigurationError, EventBudgetExceeded, SimulationError
from repro.sim.events import Event
from repro.workload.base import Workload

#: retry delay when a process refuses to initiate (still finishing the
#: previous checkpointing's commit wave)
_RETRY_DELAY = 0.1


class ExperimentRunner:
    """Drives one simulation run to a target number of initiations."""

    #: sim time of the last commit (0.0, the start, until the first);
    #: a class default, so images written before it existed resume
    _last_commit = 0.0

    def __init__(
        self,
        system: MobileSystem,
        workload: Workload,
        run_config: RunConfig,
    ) -> None:
        self.system = system
        self.workload = workload
        self.run_config = run_config
        self.committed: int = 0
        self._busy = False
        self._done = False
        self._deferred: Deque[int] = deque()
        # Centralized protocols (EJZ) only let a coordinator initiate.
        if system.protocol.distributed:
            initiators = list(system.processes)
        else:
            initiators = [getattr(system.protocol, "coordinator", 0)]
        self._timers: Dict[int, Optional[Event]] = {pid: None for pid in initiators}
        system.protocol.add_commit_listener(self._on_commit)
        system.protocol.add_abort_listener(self._on_abort)
        system.protocol.observers.append(self._on_wave)

    # -- scheduling ------------------------------------------------------
    def _schedule_first_initiations(self) -> None:
        interval = self.system.config.checkpoint_interval
        for pid in self._timers:
            offset = self.system.streams.one_shot(f"runner.stagger.{pid}").uniform(
                0.0, interval
            )
            self._arm_timer(pid, offset)

    def _arm_timer(self, pid: int, delay: float) -> None:
        if pid not in self._timers:
            return
        old = self._timers[pid]
        if old is not None:
            old.cancel()
        self._timers[pid] = self.system.sim.timer(delay, self._initiation_due, pid)

    def _on_wave(self, now: float, kind: str, fields: Dict[str, Any]) -> None:
        # Paper §5.1: a checkpoint taken early pushes the next scheduled
        # initiation one full interval past it. This also supersedes a
        # pending deferred initiation of the same process.
        if kind == "tentative" and not self._done:
            self._check_progress(now)
            pid = fields["pid"]
            if pid in self._timers:
                self._arm_timer(pid, self.system.config.checkpoint_interval)
            if pid in self._deferred:
                self._deferred.remove(pid)

    def request_initiation(self, pid: int) -> None:
        """Ask for an extra initiation by ``pid`` now (fault injection).

        Goes through the same serialization as timer-driven initiations
        (§3.3's presentation assumption): if a checkpointing is active
        the request is deferred, not run concurrently. Unknown or
        non-initiator pids are ignored.
        """
        if self._done or pid not in self._timers:
            return
        # Unlike _initiation_due this leaves the pid's regular timer
        # armed: the injection is an *extra* initiation, not an early
        # firing of the scheduled one.
        if self.run_config.serialize_initiations and self._busy:
            if pid not in self._deferred:
                self._deferred.append(pid)
            return
        self._try_initiate(pid)

    def _initiation_due(self, pid: int) -> None:
        self._timers[pid] = None
        if self._done:
            return
        if self.run_config.serialize_initiations and self._busy:
            if pid not in self._deferred:
                self._deferred.append(pid)
            return
        self._try_initiate(pid)

    def _try_initiate(self, pid: int) -> None:
        if self._done:
            return
        # Set busy *before* calling initiate(): protocols that commit
        # synchronously (uncoordinated local checkpoints) fire the commit
        # listener inside initiate(), and that listener clears busy.
        self._busy = True
        started = self.system.protocol.processes[pid].initiate()
        if not started:
            self._busy = False
            self._check_progress(self.system.sim.now)
            # Commit wave from the previous initiation has not reached
            # this process yet; retry shortly.
            self.system.sim.schedule(_RETRY_DELAY, self._try_initiate, pid)

    def _check_progress(self, now: float) -> None:
        # A run with no time limit ends only by committing: a protocol
        # that refuses every initiation, or whose induced checkpoints keep
        # pushing every timer back (§5.1's re-arm rule), would run forever.
        if self.run_config.time_limit is not None:
            return
        interval = self.system.config.checkpoint_interval
        window = (self.run_config.max_initiations + 1) * interval
        if now - self._last_commit > window:
            raise ConfigurationError(
                f"protocol {self.system.protocol.name!r} made no progress: no "
                f"commit in {window:.0f} s of simulated time, so the runner "
                "cannot drive it")

    # -- protocol callbacks ------------------------------------------------
    def _on_commit(self, trigger: Trigger) -> None:
        self.committed += 1
        self._last_commit = self.system.sim.now
        self._busy = False
        if self.committed >= self.run_config.max_initiations:
            self._finish()
            return
        self._arm_timer(trigger.pid, self.system.config.checkpoint_interval)
        if self._deferred:
            self._try_initiate(self._deferred.popleft())

    def _on_abort(self, trigger: Trigger) -> None:
        self._busy = False
        self._arm_timer(trigger.pid, self.system.config.checkpoint_interval)
        if self._deferred and not self._done:
            self._try_initiate(self._deferred.popleft())

    def _finish(self) -> None:
        # Idempotent: late commits (e.g. an injected concurrent wave
        # finishing after the target count was reached) re-enter via
        # _on_commit; a second stop() here would abort the post-run
        # settle/quiescence drains mid-flight.
        if self._done:
            return
        self._done = True
        self.workload.stop()
        for timer in self._timers.values():
            if timer is not None:
                timer.cancel()
        # Halt the kernel loop after the current event (no-op when the
        # runner is not inside sim.run, e.g. on the time-limit path).
        self.system.sim.stop()

    # -- main loop ---------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Run to completion and return the collected results."""
        self.workload.start()
        self._schedule_first_initiations()
        return self._drive(max_events)

    def resume(self, max_events: Optional[int] = None) -> RunResult:
        """Continue a snapshot-restored run to completion.

        The workload's pending sends and the initiation timers are
        already live inside the restored event heap, so this re-enters
        the drive loop directly — no restart, no re-staggering. Dispatch
        order is fully determined by the heap keys, so a resumed run
        retraces the uninterrupted run event for event.
        """
        return self._drive(max_events)

    def _drive(self, max_events: Optional[int]) -> RunResult:
        sim = self.system.sim
        limit = self.run_config.time_limit
        if limit is None:
            # Hot path: hand the whole run to the kernel's loop;
            # _finish() stops it from inside the final commit callback.
            if not self._done:
                sim.run(max_events=max_events)
            if not self._done:
                raise SimulationError(
                    "event queue drained before reaching the initiation target"
                )
        else:
            processed = 0
            while not self._done:
                if sim.now >= limit:
                    # Stop scheduling new work so post-run quiescence
                    # drains instead of running the experiment forever.
                    self._finish()
                    break
                if max_events is not None and processed >= max_events:
                    raise EventBudgetExceeded(f"exceeded max_events={max_events}")
                if not sim.step():
                    raise SimulationError(
                        "event queue drained before reaching the initiation target"
                    )
                processed += 1
        # Let the final commit broadcast settle so every process's state
        # (cp_state, discarded mutables) is final before measuring.
        sim.run(until=sim.now + 1.0)
        return self._collect()

    def _collect(self) -> RunResult:
        if not self.system.sim.trace.info_on:
            raise ConfigurationError(
                "per-initiation results are read from INFO trace records; "
                "this run's trace is OFF (set TraceLevel.INFO or DEBUG)"
            )
        stats = committed_stats(self.system.sim.trace)
        measured = stats[self.run_config.warmup_initiations :]
        total_blocked = sum(
            p.total_blocked_time for p in self.system.processes.values()
        )
        self.system.sim.flush_metrics()
        timeseries = {}
        sampler = getattr(self.system, "timeseries", None)
        if sampler is not None:
            sampler.flush()
            timeseries = sampler.export()
        # Cross-shard traffic report of a ``shards > 1`` run; {} on the
        # plain kernel, so sequential result documents are unchanged.
        report = getattr(self.system.sim, "shard_report", None)
        shard_stats = report() if report is not None else {}
        return RunResult(
            protocol=self.system.protocol.name,
            n_processes=self.system.config.n_processes,
            seed=self.system.config.seed,
            initiations=measured,
            counters=self.system.metrics.counters(),
            total_blocked_time=total_blocked,
            sim_time=self.system.sim.now,
            wall_events=self.system.sim.events_processed,
            metrics=self.system.metrics.snapshot(),
            timeseries=timeseries,
            shard_stats=shard_stats,
        )
