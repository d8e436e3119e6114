"""Application process runtime.

An :class:`AppProcess` glues together one application process: it owns
the (simulated) application state and per-channel message counts, feeds
incoming messages through the checkpointing protocol, applies blocking
for blocking protocols, and exposes the :class:`RuntimeEnv` through
which the protocol acts on the world.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.checkpointing.protocol import ProcessEnv
from repro.checkpointing.storage import LocalStore
from repro.checkpointing.types import ChannelCounts, CheckpointKind, CheckpointRecord
from repro.errors import ProtocolError, StorageError
from repro.net.message import (
    CheckpointDataMessage,
    ComputationMessage,
    Message,
    SystemMessage,
)
from repro.net.mh import MobileHost
from repro.net.node import Host
from repro.obs.registry import Counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


class _DeliverCall:
    """Zero-arg deliver thunk handed to the protocol with each message.

    Blocking protocols (e.g. mutable checkpointing) retain the thunk in
    their delivery queues across events, so it must survive snapshot
    pickling — a plain slotted class does, a per-message lambda would
    not.
    """

    __slots__ = ("process", "message")

    def __init__(self, process: "AppProcess", message: ComputationMessage) -> None:
        self.process = process
        self.message = message

    def __call__(self) -> None:
        self.process._deliver(self.message)


class AppProcess:
    """One application process with its protocol instance and state."""

    def __init__(self, system: "MobileSystem", pid: int, host: Host) -> None:
        self.system = system
        self.pid = pid
        self.host = host
        #: computation messages sent to each peer / received from each
        #: peer; ``None`` once restored from an image that kept no counts
        self.sent: ChannelCounts = defaultdict(int)
        self.received: ChannelCounts = defaultdict(int)
        self.app_state: Dict[str, Any] = {
            "messages_sent": 0,
            "messages_received": 0,
            "steps": 0,
        }
        self.local_store = LocalStore(name=f"local-p{pid}")
        #: recovery incarnation: computation messages from older
        #: incarnations (in flight across a rollback) are discarded
        self.incarnation = 0
        #: out-of-band system-message handlers (e.g. distributed
        #: recovery), dispatched by subkind before the protocol sees them
        self._system_handlers: Dict[str, Callable[[SystemMessage], None]] = {}
        self.env = RuntimeEnv(self)
        self.protocol_process = system.protocol.create_process(self.env)
        # blocking support (used by blocking baselines)
        self.blocked = False
        self.blocked_since: Optional[float] = None
        self.total_blocked_time = 0.0
        self._deferred_sends: List[Tuple[int, Any]] = []
        self._deferred_receives: List[ComputationMessage] = []
        # Hot-path instruments resolved once (send/deliver run per message).
        metrics = system.metrics
        self._m_comp_messages = metrics.counter("computation_messages")
        self._m_stale_dropped = metrics.counter("stale_incarnation_dropped")
        self._m_blocking_time = metrics.histogram("blocking_time")
        self._next_msg_id = system.message_ids.__next__
        host.attach_process(pid, self.on_message)

    # -- application actions ------------------------------------------------
    def send_computation(self, dst_pid: int, payload: Any = None) -> None:
        """Send an application message (deferred while blocked)."""
        if self.blocked:
            self._deferred_sends.append((dst_pid, payload))
            return
        self._do_send(dst_pid, payload)

    def _do_send(self, dst_pid: int, payload: Any) -> None:
        message = ComputationMessage(
            src_pid=self.pid,
            dst_pid=dst_pid,
            payload=payload,
            msg_id=self._next_msg_id(),
        )
        if self.incarnation:
            message.piggyback["inc"] = self.incarnation
        self.protocol_process.on_send_computation(message)
        self.app_state["messages_sent"] += 1
        sent = self.sent
        if sent is not None:
            sent[dst_pid] += 1
        trace = self.system.sim.trace
        if trace.debug_on:
            trace.debug(
                self.system.sim._now,
                "comp_send",
                src=self.pid,
                dst=dst_pid,
                msg_id=message.msg_id,
            )
        self._m_comp_messages.inc()
        self.system.workload_send(self, message)
        self.system.network.send_from_process(self.pid, message)

    # -- message reception ----------------------------------------------------
    def register_system_handler(
        self, subkind: str, handler: Callable[[SystemMessage], None]
    ) -> None:
        """Intercept system messages of ``subkind`` before the protocol
        (used by the distributed recovery layer)."""
        self._system_handlers[subkind] = handler

    def on_message(self, message: Message) -> None:
        """Entry point for every message the host delivers to this pid."""
        if isinstance(message, SystemMessage):
            handler = self._system_handlers.get(message.subkind)
            if handler is not None:
                handler(message)
                return
            self.protocol_process.on_system_message(message)
        elif isinstance(message, ComputationMessage):
            if self.incarnation and message.piggyback_get("inc", 0) < self.incarnation:
                # A ghost from a rolled-back incarnation: drop it.
                self._m_stale_dropped.inc()
                return
            if self.blocked:
                self._deferred_receives.append(message)
                return
            self.protocol_process.on_receive_computation(
                message, _DeliverCall(self, message)
            )
        else:
            raise ProtocolError(
                f"process {self.pid} received unroutable message kind {message.kind}"
            )

    def _deliver(self, message: ComputationMessage) -> None:
        """Hand a computation message to the application."""
        received = self.received
        if received is not None:
            received[message.src_pid] += 1
        app_state = self.app_state
        app_state["messages_received"] += 1
        app_state["steps"] += 1
        trace = self.system.sim.trace
        if trace.debug_on:
            trace.debug(
                self.system.sim._now,
                "comp_recv",
                src=message.src_pid,
                dst=self.pid,
                msg_id=message.msg_id,
            )
        self.system.workload_deliver(self, message)

    # -- blocking (for blocking protocols) -----------------------------------------
    def block(self) -> None:
        """Suspend the underlying computation."""
        if self.blocked:
            return
        self.blocked = True
        self.blocked_since = self.system.sim.now
        self.system.sim.trace.record(self.system.sim.now, "blocked", pid=self.pid)

    def unblock(self) -> None:
        """Resume the computation and replay deferred activity in order."""
        if not self.blocked:
            return
        self.blocked = False
        assert self.blocked_since is not None
        duration = self.system.sim.now - self.blocked_since
        self.total_blocked_time += duration
        self._m_blocking_time.observe(duration)
        self.blocked_since = None
        self.system.sim.trace.record(self.system.sim.now, "unblocked", pid=self.pid)
        receives, self._deferred_receives = self._deferred_receives, []
        for message in receives:
            self.protocol_process.on_receive_computation(
                message, _DeliverCall(self, message)
            )
        sends, self._deferred_sends = self._deferred_sends, []
        for dst_pid, payload in sends:
            self.send_computation(dst_pid, payload)

    # -- state capture / restore (checkpointing and recovery) ------------------------
    def capture_state(self) -> Dict[str, Any]:
        """Deep-enough copy of the application state."""
        return dict(self.app_state)

    def capture_channels(self) -> Tuple[ChannelCounts, ChannelCounts]:
        """Copies of the ``(sent, received)`` counts for a checkpoint."""
        if self.sent is None:
            return None, None
        return dict(self.sent), dict(self.received)

    def restore_state(
        self,
        state: Dict[str, Any],
        sent: ChannelCounts,
        received: ChannelCounts,
    ) -> None:
        """Roll the application and its channel counts back (rollback
        passes ``received`` from the line, see
        :func:`repro.analysis.consistency.channel_received`)."""
        self.app_state = dict(state)
        if sent is None or received is None:
            self.sent = self.received = None
        else:
            self.sent = defaultdict(int, sent)
            self.received = defaultdict(int, received)

    def discard_deferred(self) -> None:
        """Drop buffered activity (a rollback invalidates it)."""
        self._deferred_sends.clear()
        self._deferred_receives.clear()

    # -- snapshot (pickle) support ---------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        # Bound method-wrapper on the shared itertools.count — not
        # picklable; _reattach() rebinds it after a snapshot restore.
        state.pop("_next_msg_id", None)
        return state

    def _reattach(self) -> None:
        """Rebind hot-path handles dropped by :meth:`__getstate__`."""
        self._next_msg_id = self.system.message_ids.__next__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AppProcess p{self.pid} on {self.host.name}>"


class RuntimeEnv(ProcessEnv):
    """The :class:`ProcessEnv` implementation backed by the full system."""

    def __init__(self, process: AppProcess) -> None:
        self.process = process
        self.system = process.system
        self.pid = process.pid
        self.n = self.system.config.n_processes
        metrics = self.system.metrics
        self._m_sys_messages = metrics.counter("system_messages")
        self._m_broadcasts = metrics.counter("broadcasts")
        #: subkind -> its ``system_messages_<subkind>`` counter, on first send
        self._m_subkinds: Dict[str, Counter] = {}
        self._next_msg_id = self.system.message_ids.__next__

    def now(self) -> float:
        return self.system.sim.now

    def send_system(self, dst_pid: int, subkind: str, fields: Dict[str, Any]) -> None:
        message = SystemMessage(
            src_pid=self.pid,
            dst_pid=dst_pid,
            subkind=subkind,
            fields=fields,
            msg_id=self._next_msg_id(),
        )
        self._m_sys_messages.inc()
        counter = self._m_subkinds.get(subkind)
        if counter is None:
            counter = self._m_subkinds[subkind] = self.system.metrics.counter(
                f"system_messages_{subkind}"
            )
        counter.value += 1
        trace = self.system.sim.trace
        if trace.debug_on:
            # The wave tag (a Trigger for request/reply/commit/abort)
            # lets forensics attribute control messages to their wave.
            trace.debug(
                self.system.sim.now, "sys_send",
                src=self.pid, dst=dst_pid, subkind=subkind,
                trigger=fields.get("trigger"),
            )
        self.system.network.send_from_process(self.pid, message)

    def broadcast_system(self, subkind: str, fields: Dict[str, Any]) -> int:
        self._m_broadcasts.inc()
        trace = self.system.sim.trace
        if trace.debug_on:
            trace.debug(
                self.system.sim.now, "sys_broadcast", src=self.pid, subkind=subkind,
                trigger=fields.get("trigger"),
            )
        return self.system.network.broadcast_system(
            self.pid,
            lambda pid: SystemMessage(
                src_pid=self.pid,
                dst_pid=pid,
                subkind=subkind,
                fields=dict(fields),
                msg_id=self._next_msg_id(),
            ),
        )

    def capture_state(self) -> Dict[str, Any]:
        return self.process.capture_state()

    def capture_channels(self) -> Tuple[ChannelCounts, ChannelCounts]:
        return self.process.capture_channels()

    def next_checkpoint_id(self) -> int:
        return next(self.system.checkpoint_ids)

    def save_mutable(self, record: CheckpointRecord) -> None:
        self.process.local_store.save(record)
        self.system.metrics.counter("mutable_checkpoints").inc()

    def transfer_to_stable(
        self, record: CheckpointRecord, on_saved: Callable[[], None]
    ) -> None:
        record.size_bytes = self.system.config.checkpoint_size_bytes
        self.system.metrics.counter("stable_transfers").inc()
        host = self.process.host
        if isinstance(host, MobileHost):
            data = CheckpointDataMessage(
                src_pid=self.pid,
                dst_pid=None,
                checkpoint_ref=record,
                size_bytes=record.size_bytes,
                msg_id=self._next_msg_id(),
            )
            data.on_stored = on_saved  # consumed by the MSS, see mss hook
            host.transfer_checkpoint_data(data)
        else:
            # Process runs on an MSS: only the disk write is charged.
            storage = self.system.stable_storage_for(self.pid)
            storage.store(record)
            delay = self.system.config.network.stable_write_time
            self.system.sim.schedule(delay, on_saved)

    def discard_mutable(self, record: CheckpointRecord) -> None:
        self.process.local_store.remove(record)

    def make_permanent(self, record: CheckpointRecord) -> None:
        record.kind = CheckpointKind.PERMANENT
        if self.system.protocol.gc_permanents:
            storage = self.system.stable_storage_for(self.pid)
            storage.garbage_collect(self.pid)

    def discard_stable(self, record: CheckpointRecord) -> None:
        storage = self.system.stable_storage_for(self.pid)
        try:
            storage.discard(record)
        except StorageError:
            # The transfer may still be in flight when an abort arrives;
            # the MSS-side hook drops such records on arrival.
            record.kind = CheckpointKind.MUTABLE  # poisoned: never store

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.system.sim.schedule(delay, fn)

    def trace(self, kind: str, **fields: Any) -> None:
        now = self.system.sim.now
        self.system.sim.trace.record(now, kind, **fields)
        for observer in self.system.protocol.observers:
            observer(now, kind, fields)

    def block_computation(self) -> None:
        self.process.block()

    def unblock_computation(self) -> None:
        self.process.unblock()

    @property
    def mutable_save_time(self) -> float:
        return self.system.config.network.mutable_save_time

    # -- snapshot (pickle) support ---------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_next_msg_id", None)
        state.pop("_m_subkinds", None)
        return state

    def _reattach(self) -> None:
        """Rebind hot-path handles dropped by :meth:`__getstate__`."""
        self._next_msg_id = self.system.message_ids.__next__
        self._m_subkinds = {}
