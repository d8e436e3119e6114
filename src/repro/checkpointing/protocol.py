"""Protocol plug-in interface.

A checkpointing algorithm is implemented as a pair of classes:

* a :class:`CheckpointProtocol` (one per system) that manufactures
  per-process instances and carries cross-process *observers* (commit /
  abort listeners and wave observers of the runtime — never algorithm state);
* a :class:`ProtocolProcess` (one per process) holding all algorithm
  state and reacting to exactly the events the paper's pseudocode reacts
  to: sending a computation message, receiving one, receiving a system
  message, and initiating a checkpointing process.

The per-process instance talks to the world only through a
:class:`ProcessEnv`, so protocols are unit-testable against a scripted
environment and identical code runs inside the full mobile-network
simulation.

Trace kinds emitted by protocols (consumed by the verification and
metrics layers):

* ``initiation``      fields: pid, trigger
* ``tentative``       fields: pid, trigger, csn, ckpt_id
* ``mutable``         fields: pid, trigger, csn, ckpt_id
* ``mutable_promoted``  fields: pid, trigger, ckpt_id
* ``mutable_discarded`` fields: pid, trigger, ckpt_id
* ``permanent``       fields: pid, trigger, ckpt_id
* ``commit``          fields: trigger
* ``abort``           fields: trigger
* ``comp_send`` / ``comp_recv``  fields: src, dst, msg_id
* ``sys_send``        fields: src, dst, subkind
* ``blocked`` / ``unblocked``    fields: pid
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.checkpointing.types import (
    ChannelCounts,
    CheckpointKind,
    CheckpointRecord,
    Trigger,
)
from repro.net.message import ComputationMessage, SystemMessage


def noop() -> None:
    """Do nothing.

    The picklable stand-in for ``lambda: None`` completion callbacks:
    module-level functions pickle by reference, so protocols that park a
    no-op on an in-flight message or the event heap stay snapshottable.
    """


#: wiring attributes every process excludes from ``state_dict()``
_STATE_DICT_WIRING: FrozenSet[str] = frozenset({"env", "protocol", "pid", "n"})


class ProcessEnv(ABC):
    """Everything a protocol process may do to the outside world."""

    #: process id of this instance
    pid: int
    #: total number of processes (paper's N)
    n: int

    @abstractmethod
    def now(self) -> float:
        """Current simulated time."""

    @abstractmethod
    def send_system(
        self, dst_pid: int, subkind: str, fields: Dict[str, Any]
    ) -> None:
        """Send a 50-byte protocol control message to ``dst_pid``."""

    @abstractmethod
    def broadcast_system(self, subkind: str, fields: Dict[str, Any]) -> int:
        """Send a control message to every other process; returns copies."""

    @abstractmethod
    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the application state for a checkpoint."""

    @abstractmethod
    def capture_channels(self) -> Tuple[ChannelCounts, ChannelCounts]:
        """Copies of the runtime's per-peer ``(sent, received)`` message
        counts (verification and rollback; ``(None, None)`` if it keeps none)."""

    @abstractmethod
    def next_checkpoint_id(self) -> int:
        """A ``ckpt_id`` no other checkpoint of this run has."""

    @abstractmethod
    def save_mutable(self, record: CheckpointRecord) -> None:
        """Store ``record`` in the MH-local store (2.5 ms class cost)."""

    @abstractmethod
    def transfer_to_stable(
        self, record: CheckpointRecord, on_saved: Callable[[], None]
    ) -> None:
        """Ship ``record`` to MSS stable storage over the wireless link.

        ``on_saved`` fires when the data has arrived (the 2 s class cost);
        protocols send their *reply* from there so the checkpointing time
        includes the transfer, as in the paper's T_ch.
        """

    @abstractmethod
    def discard_mutable(self, record: CheckpointRecord) -> None:
        """Drop a mutable checkpoint from the local store."""

    @abstractmethod
    def make_permanent(self, record: CheckpointRecord) -> None:
        """Flip a stored tentative checkpoint to permanent and garbage
        collect permanents it supersedes."""

    @abstractmethod
    def discard_stable(self, record: CheckpointRecord) -> None:
        """Remove an aborted tentative checkpoint from stable storage."""

    @abstractmethod
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` simulated seconds."""

    @abstractmethod
    def trace(self, kind: str, **fields: Any) -> None:
        """Append a record to the run's trace log."""

    @abstractmethod
    def block_computation(self) -> None:
        """Suspend the underlying computation (blocking protocols)."""

    @abstractmethod
    def unblock_computation(self) -> None:
        """Resume the underlying computation."""

    @property
    @abstractmethod
    def mutable_save_time(self) -> float:
        """Local-memory checkpoint copy time (paper: 2.5 ms)."""


class ProtocolProcess(ABC):
    """Per-process half of a checkpointing algorithm."""

    #: extra attribute names a subclass excludes from ``state_dict()``
    #: (e.g. queues of live callables that belong to the runtime, not
    #: the algorithm)
    _state_dict_exclude: FrozenSet[str] = frozenset()

    def __init__(self, env: ProcessEnv) -> None:
        self.env = env
        self.pid = env.pid
        self.n = env.n

    # -- algorithm-state capture (snapshot inspection + tests) ---------------
    def state_dict(self) -> Dict[str, Any]:
        """The algorithm's per-process state as a plain, detached dict.

        Every instance attribute except the wiring (``env``,
        ``protocol``, ``pid``, ``n``) and the subclass's
        ``_state_dict_exclude`` set, deep-copied so callers can inspect
        or stash it without aliasing live protocol state. This is the
        introspectable counterpart of whole-graph snapshot pickling —
        ``repro-sim snapshots --show`` renders it, and the round-trip
        tests diff it across snapshot/resume.
        """
        skip = _STATE_DICT_WIRING | self._state_dict_exclude
        return {
            key: copy.deepcopy(value)
            for key, value in sorted(vars(self).items())
            if key not in skip
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore attributes previously captured by :meth:`state_dict`."""
        for key, value in state.items():
            setattr(self, key, copy.deepcopy(value))

    @abstractmethod
    def on_send_computation(self, message: ComputationMessage) -> None:
        """Piggyback protocol data onto an outgoing computation message."""

    @abstractmethod
    def on_receive_computation(
        self, message: ComputationMessage, deliver: Callable[[], None]
    ) -> None:
        """Handle an incoming computation message.

        The protocol decides whether to checkpoint first, then calls
        ``deliver()`` (possibly after a delay) to hand the message to the
        application.
        """

    @abstractmethod
    def on_system_message(self, message: SystemMessage) -> None:
        """Handle a protocol control message."""

    @abstractmethod
    def initiate(self) -> bool:
        """Start a checkpointing process; False if refused/impossible."""

    # -- conveniences shared by implementations ------------------------------
    def make_checkpoint(
        self,
        csn: int,
        kind: CheckpointKind,
        trigger: Optional[Trigger],
    ) -> CheckpointRecord:
        """Capture application state into a new checkpoint record."""
        sent, received = self.env.capture_channels()
        return CheckpointRecord(
            pid=self.pid,
            csn=csn,
            kind=kind,
            time_taken=self.env.now(),
            ckpt_id=self.env.next_checkpoint_id(),
            state=self.env.capture_state(),
            trigger=trigger,
            sent=sent,
            received=received,
        )


class CheckpointProtocol(ABC):
    """System-wide half: factory for process instances plus observers."""

    #: short machine name used by the registry and result tables
    name: str = "abstract"
    #: whether the algorithm ever blocks the underlying computation
    blocking: bool = False
    #: whether any process may initiate (vs a fixed coordinator)
    distributed: bool = True
    #: whether superseded permanent checkpoints may be garbage collected
    #: (uncoordinated recovery needs the full history — §6's storage cost)
    gc_permanents: bool = True

    def __init__(self) -> None:
        self.processes: Dict[int, ProtocolProcess] = {}
        self._commit_listeners: List[Callable[[Trigger], None]] = []
        self._abort_listeners: List[Callable[[Trigger], None]] = []
        #: ``fn(now, kind, fields)`` for every record a process traces,
        #: at every trace level; pickled with the system
        self.observers: List[Callable[[float, str, Dict[str, Any]], None]] = []

    @abstractmethod
    def _build_process(self, env: ProcessEnv) -> ProtocolProcess:
        """Create the per-process instance (subclass hook)."""

    def create_process(self, env: ProcessEnv) -> ProtocolProcess:
        """Create and register the instance for ``env.pid``."""
        process = self._build_process(env)
        self.processes[env.pid] = process
        return process

    def state_dict(self) -> Dict[str, Any]:
        """Protocol-wide algorithm state: one entry per process."""
        return {
            "name": self.name,
            "processes": {
                pid: process.state_dict()
                for pid, process in sorted(self.processes.items())
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore every process's state from :meth:`state_dict` output."""
        if state.get("name") != self.name:
            raise ValueError(
                f"state_dict is for protocol {state.get('name')!r}, "
                f"not {self.name!r}"
            )
        for pid, process_state in state["processes"].items():
            self.processes[pid].load_state_dict(process_state)

    def add_commit_listener(self, fn: Callable[[Trigger], None]) -> None:
        """Observe committed initiations (used by the runner)."""
        self._commit_listeners.append(fn)

    def add_abort_listener(self, fn: Callable[[Trigger], None]) -> None:
        """Observe aborted initiations."""
        self._abort_listeners.append(fn)

    def notify_commit(self, trigger: Trigger) -> None:
        """Called by the initiating process when it broadcasts commit."""
        for fn in list(self._commit_listeners):
            fn(trigger)

    def notify_abort(self, trigger: Trigger) -> None:
        """Called when an initiation is aborted."""
        for fn in list(self._abort_listeners):
            fn(trigger)
