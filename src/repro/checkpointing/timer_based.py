"""Checkpointing from loosely synchronized clocks ([10], [29]; paper §6).

No coordination messages at all: every process takes round k's
checkpoint when its own clock reads the round's time, and clocks are
assumed synchronized within ``max_skew``. The §6 catch: "a process
taking a checkpoint needs to wait for a period that equals the sum of
the maximum deviation between clocks and the maximum time to detect a
failure in another process" — i.e. the computation blocks for
``2 * max_skew + detection_time`` at every round, or a fast-clock
process could receive (and record) a message a slow-clock process sends
after its own checkpoint, creating an orphan.

A round starts when the experiment runner's §5.1 timer makes a process
initiate: the round's time is agreed through the synchronized clocks,
not by message, so the initiator arms it on every process at once.
Every record of the round carries the initiator's trigger, and the round
commits once every process has waited and stored its checkpoint.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Set

from repro.checkpointing.protocol import (
    CheckpointProtocol,
    ProcessEnv,
    ProtocolProcess,
)
from repro.checkpointing.types import CheckpointKind, CheckpointRecord, Trigger
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage, SystemMessage


class TimerBasedProcess(ProtocolProcess):
    """Per-process state: a clock with bounded skew and a round counter."""

    def __init__(self, env: ProcessEnv, protocol: "TimerBasedProtocol") -> None:
        super().__init__(env)
        self.protocol = protocol
        self.round = 0
        #: rounds whose checkpoint has done one of its two steps
        self.half_done: Set[Trigger] = set()
        # Deterministic skew in [-max_skew, +max_skew], spread across pids.
        span = protocol.max_skew
        fraction = ((self.pid * 2654435761) % 997) / 996.0
        self.skew = (2.0 * fraction - 1.0) * span

    # -- the protocol has no message behaviour at all -----------------------
    def on_send_computation(self, message: ComputationMessage) -> None:
        pass

    def on_receive_computation(self, message, deliver: Callable[[], None]) -> None:
        deliver()

    def on_system_message(self, message: SystemMessage) -> None:
        raise ProtocolError("timer-based checkpointing exchanges no messages")

    def initiate(self) -> bool:
        """Arm one round on every process: each takes its checkpoint when
        its own clock reaches ``now + max_skew``, which is within
        ``[now, now + 2 * max_skew]`` of true time."""
        protocol = self.protocol
        protocol.rounds += 1
        trigger = Trigger(self.pid, protocol.rounds)
        self.env.trace("initiation", pid=self.pid, trigger=trigger)
        protocol.unfinished[trigger] = len(protocol.processes)
        for process in protocol.processes.values():
            process.env.schedule(
                protocol.max_skew + process.skew, partial(process._take_round, trigger)
            )
        return True

    # -- round machinery ------------------------------------------------------
    def _take_round(self, trigger: Trigger) -> None:
        self.round = trigger.inum
        self.env.block_computation()
        record = self.make_checkpoint(trigger.inum, CheckpointKind.TENTATIVE, trigger)
        self.env.trace(
            "tentative",
            pid=self.pid,
            trigger=trigger,
            csn=trigger.inum,
            ckpt_id=record.ckpt_id,
        )
        self.env.transfer_to_stable(record, partial(self._round_step, trigger, record))
        # The §6 wait: cover every other clock plus failure detection.
        wait = 2.0 * self.protocol.max_skew + self.protocol.detection_time
        self.env.schedule(wait, partial(self._finish_wait, trigger, record))

    def _finish_wait(self, trigger: Trigger, record: CheckpointRecord) -> None:
        self.env.unblock_computation()
        self._round_step(trigger, record)

    def _round_step(self, trigger: Trigger, record: CheckpointRecord) -> None:
        # Two steps per checkpoint, in either order: the §6 wait ends and
        # the data lands on stable storage. After both it is permanent,
        # and the round commits once every process's is.
        if trigger not in self.half_done:
            self.half_done.add(trigger)
            return
        self.half_done.remove(trigger)
        self.env.make_permanent(record)
        self.env.trace("permanent", pid=self.pid, trigger=trigger, ckpt_id=record.ckpt_id)
        unfinished = self.protocol.unfinished
        unfinished[trigger] -= 1
        if not unfinished[trigger]:
            del unfinished[trigger]
            self.env.trace("commit", trigger=trigger)
            self.protocol.notify_commit(trigger)


class TimerBasedProtocol(CheckpointProtocol):
    """System-wide factory for the loosely-synchronized-clocks baseline.

    Parameters
    ----------
    max_skew:
        Bound on any clock's deviation from true time.
    detection_time:
        Maximum time to detect another process's failure (part of the
        §6 waiting period).
    """

    name = "timer-based"
    blocking = True
    distributed = True

    def __init__(self, max_skew: float = 1.0, detection_time: float = 2.0) -> None:
        super().__init__()
        if max_skew < 0 or detection_time < 0:
            raise ProtocolError("invalid timer-based parameters")
        self.max_skew = max_skew
        self.detection_time = detection_time
        #: rounds started so far: round k's trigger is (initiator, k)
        self.rounds = 0
        #: trigger -> the processes whose checkpoint of that round is
        #: not permanent yet
        self.unfinished: Dict[Trigger, int] = {}

    def _build_process(self, env: ProcessEnv) -> TimerBasedProcess:
        return TimerBasedProcess(env, self)
