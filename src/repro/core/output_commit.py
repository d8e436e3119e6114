"""Output commit (paper §5.3).

Messages to the *outside world* — a display, a file, an actuator —
cannot be unsent by rollback, so they must be held until a checkpoint
guaranteeing they will never be orphaned reaches stable storage:
"Generally, if a process needs output commit, it initiates a
checkpointing process. Thus, the output commit delay equals the duration
of the checkpointing process."

:class:`OutputCommitManager` implements exactly that: an output request
buffers the payload, triggers a checkpointing at the requesting process
(or at the coordinator, for centralized protocols), and releases the
output when that initiation commits. The measured request-to-release
latencies are the paper's output-commit column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.analysis.stats import Summary, summarize
from repro.checkpointing.types import Trigger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem

#: retry delay when the initiation is refused (previous one still active)
_RETRY_DELAY = 0.1


@dataclass
class OutputRequest:
    """One pending or released output."""

    pid: int
    payload: Any
    request_time: float
    release_time: Optional[float] = None
    trigger: Optional[Trigger] = None

    @property
    def released(self) -> bool:
        return self.release_time is not None

    @property
    def delay(self) -> Optional[float]:
        if self.release_time is None:
            return None
        return self.release_time - self.request_time


class OutputCommitManager:
    """Gates outside-world output on checkpoint commits."""

    def __init__(self, system: "MobileSystem") -> None:
        self.system = system
        self.pending: List[OutputRequest] = []
        self.released: List[OutputRequest] = []
        system.protocol.add_commit_listener(self._on_commit)
        system.protocol.add_abort_listener(self._on_abort)

    # ------------------------------------------------------------------
    def request_output(self, pid: int, payload: Any = None) -> OutputRequest:
        """Buffer an output and start the checkpointing that releases it."""
        request = OutputRequest(
            pid=pid, payload=payload, request_time=self.system.sim.now
        )
        self.pending.append(request)
        self.system.sim.trace.record(
            self.system.sim.now, "output_requested", pid=pid
        )
        self._initiate_for(request)
        return request

    def _initiator_for(self, pid: int) -> int:
        """Centralized protocols route output commits through the
        coordinator (one of the §5.3.2 drawbacks of [13])."""
        if self.system.protocol.distributed:
            return pid
        return getattr(self.system.protocol, "coordinator", 0)

    def _initiate_for(self, request: OutputRequest) -> None:
        if request.released:
            return
        initiator = self._initiator_for(request.pid)
        process = self.system.protocol.processes[initiator]
        started = process.initiate()
        if started:
            request.trigger = getattr(process, "initiating", None) or Trigger(
                initiator, -1
            )
        else:
            # A checkpointing is already running; if it is one that will
            # release us (same initiator, started after our request) we
            # just wait, otherwise retry shortly.
            self.system.sim.schedule(_RETRY_DELAY, self._initiate_for, request)

    # ------------------------------------------------------------------
    def _on_commit(self, trigger: Trigger) -> None:
        now = self.system.sim.now
        still_pending: List[OutputRequest] = []
        for request in self.pending:
            matches = (
                trigger.pid == self._initiator_for(request.pid)
                and (request.trigger is None or request.trigger == trigger
                     or request.trigger.inum == -1)
            )
            if matches and not request.released:
                request.release_time = now
                request.trigger = trigger
                self.released.append(request)
                self.system.sim.trace.record(
                    now, "output_released", pid=request.pid,
                    delay=request.delay, trigger=trigger,
                )
            else:
                still_pending.append(request)
        self.pending = still_pending

    def _on_abort(self, trigger: Trigger) -> None:
        # The checkpointing that was going to release us died: retry.
        for request in self.pending:
            if request.trigger == trigger:
                request.trigger = None
                self.system.sim.schedule(_RETRY_DELAY, self._initiate_for, request)

    # ------------------------------------------------------------------
    def delay_summary(self) -> Summary:
        """Output-commit delay statistics (the Table 1 column)."""
        return summarize([r.delay for r in self.released if r.delay is not None])

    @property
    def outstanding(self) -> int:
        return len(self.pending)
