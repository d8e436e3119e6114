"""Deterministic protocol harness with scripted message delivery.

The paper's figures (1–4) are statements about *message orderings*, not
timing: "P3 receives m1 before the checkpoint request". This harness
runs protocol processes against a minimal in-memory environment where
the test script chooses exactly when each in-flight message is
delivered, making every figure reproducible as a deterministic unit
test — and making randomized delivery orders a natural property-based
test (deliver in any order; committed lines must stay consistent).

Checkpoints are saved instantly (timing is irrelevant here); the trace
log uses the same record kinds as the full simulation, so the
:mod:`repro.analysis.consistency` checkers apply unchanged.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import count
from typing import Any, Callable, Deque, DefaultDict, Dict, List, Optional, Tuple

from repro.checkpointing.protocol import CheckpointProtocol, ProcessEnv
from repro.checkpointing.storage import LocalStore, StableStorage
from repro.checkpointing.types import ChannelCounts, CheckpointKind, CheckpointRecord
from repro.errors import ProtocolError
from repro.net.message import ComputationMessage, SystemMessage
from repro.sim.trace import TraceLog


class InFlight:
    """A message waiting for the script to deliver it."""

    def __init__(self, message: Any, dst: int, kind: str) -> None:
        self.message = message
        self.dst = dst
        self.kind = kind  # "comp" | "system"
        self.delivered = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "delivered" if self.delivered else "pending"
        label = getattr(self.message, "subkind", "comp")
        return f"<InFlight #{self.message.msg_id} {label} -> p{self.dst} {state}>"


class HarnessEnv(ProcessEnv):
    """Minimal :class:`ProcessEnv` capturing everything in memory."""

    def __init__(self, harness: "ScenarioHarness", pid: int) -> None:
        self.harness = harness
        self.pid = pid
        self.n = harness.n

    def now(self) -> float:
        return float(self.harness.clock)

    def send_system(self, dst_pid: int, subkind: str, fields: Dict[str, Any]) -> None:
        message = SystemMessage(
            src_pid=self.pid, dst_pid=dst_pid, subkind=subkind, fields=fields,
            msg_id=next(self.harness.message_ids),
        )
        self.harness.trace.record(
            self.now(), "sys_send", src=self.pid, dst=dst_pid, subkind=subkind,
            trigger=fields.get("trigger"),
        )
        self.harness.post(InFlight(message, dst_pid, "system"))

    def broadcast_system(self, subkind: str, fields: Dict[str, Any]) -> int:
        sent = 0
        for pid in range(self.n):
            if pid == self.pid:
                continue
            self.send_system(pid, subkind, dict(fields))
            sent += 1
        return sent

    def capture_state(self) -> Dict[str, Any]:
        return dict(self.harness.app_state[self.pid])

    def capture_channels(self) -> Tuple[ChannelCounts, ChannelCounts]:
        return dict(self.harness.sent[self.pid]), dict(self.harness.received[self.pid])

    def next_checkpoint_id(self) -> int:
        return next(self.harness.checkpoint_ids)

    def save_mutable(self, record: CheckpointRecord) -> None:
        self.harness.local_stores[self.pid].save(record)

    def transfer_to_stable(
        self, record: CheckpointRecord, on_saved: Callable[[], None]
    ) -> None:
        self.harness.storage.store(record)
        on_saved()

    def discard_mutable(self, record: CheckpointRecord) -> None:
        self.harness.local_stores[self.pid].remove(record)

    def make_permanent(self, record: CheckpointRecord) -> None:
        record.kind = CheckpointKind.PERMANENT
        if self.harness.protocol.gc_permanents:
            self.harness.storage.garbage_collect(self.pid)

    def discard_stable(self, record: CheckpointRecord) -> None:
        try:
            self.harness.storage.discard(record)
        except Exception:
            record.kind = CheckpointKind.MUTABLE

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        # Checkpoint-save delays are irrelevant to ordering scenarios.
        fn()

    def trace(self, kind: str, **fields: Any) -> None:
        self.harness.trace.record(self.now(), kind, **fields)

    def block_computation(self) -> None:
        self.harness.blocked[self.pid] = True

    def unblock_computation(self) -> None:
        if not self.harness.blocked[self.pid]:
            return
        self.harness.blocked[self.pid] = False
        self.harness.flush_deferred(self.pid)

    @property
    def mutable_save_time(self) -> float:
        return 0.0


class ScenarioHarness:
    """Drives protocol processes with scripted message delivery.

    Typical use::

        h = ScenarioHarness(3, MutableCheckpointProtocol())
        m1 = h.send(0, 1)          # P0 -> P1, in flight
        h.initiate(2)              # P2 starts a checkpointing
        h.deliver(m1)              # now deliver m1
        h.deliver_all_system()     # let the coordination finish
        h.assert_consistent()
    """

    def __init__(self, n: int, protocol: CheckpointProtocol) -> None:
        self.n = n
        self.protocol = protocol
        self.clock = 0
        self.checkpoint_ids = count()
        self.message_ids = count()
        self.trace = TraceLog()
        self.storage = StableStorage(name="scenario-stable")
        self.local_stores = [LocalStore(name=f"local-p{i}") for i in range(n)]
        self.app_state: List[Dict[str, Any]] = [
            {"messages_sent": 0, "messages_received": 0} for _ in range(n)
        ]
        #: per pid: computation messages sent to / received from each peer
        self.sent: List[DefaultDict[int, int]] = [defaultdict(int) for _ in range(n)]
        self.received: List[DefaultDict[int, int]] = [defaultdict(int) for _ in range(n)]
        self.blocked = [False] * n
        self.pending: Deque[InFlight] = deque()
        # Blocking protocols (Koo-Toueg): a blocked process neither sends
        # nor consumes computation messages; both are deferred here and
        # replayed on unblock, mirroring the full runtime's semantics.
        self._deferred_sends: Dict[int, List[Tuple[int, Any]]] = {
            i: [] for i in range(n)
        }
        self._deferred_receives: Dict[int, List[InFlight]] = {i: [] for i in range(n)}
        self.processes = [
            protocol.create_process(HarnessEnv(self, pid)) for pid in range(n)
        ]
        # Initial permanent checkpoints so a recovery line always exists.
        for pid in range(n):
            record = CheckpointRecord(
                pid=pid,
                csn=0,
                kind=CheckpointKind.PERMANENT,
                time_taken=0.0,
                ckpt_id=next(self.checkpoint_ids),
                state=dict(self.app_state[pid]),
                trigger=None,
                sent={},
                received={},
            )
            self.storage.store(record)
            self.trace.record(0.0, "permanent", pid=pid, trigger=None, ckpt_id=record.ckpt_id)

    # -- script actions ------------------------------------------------------
    def tick(self) -> None:
        """Advance the scenario clock one step."""
        self.clock += 1

    def post(self, flight: InFlight) -> None:
        """Register an in-flight message (used by envs)."""
        self.pending.append(flight)

    def send(self, src: int, dst: int, payload: Any = None) -> Optional[InFlight]:
        """P_src sends a computation message to P_dst (stays in flight).

        Returns None when ``src`` is blocked: the send is deferred and
        happens automatically at unblock (blocking-protocol semantics).
        """
        if src == dst:
            raise ProtocolError("no self-messages")
        if self.blocked[src]:
            self._deferred_sends[src].append((dst, payload))
            return None
        self.tick()
        message = ComputationMessage(
            src_pid=src, dst_pid=dst, payload=payload, msg_id=next(self.message_ids)
        )
        self.processes[src].on_send_computation(message)
        self.app_state[src]["messages_sent"] += 1
        self.sent[src][dst] += 1
        self.trace.record(
            float(self.clock), "comp_send", src=src, dst=dst, msg_id=message.msg_id
        )
        flight = InFlight(message, dst, "comp")
        self.pending.append(flight)
        return flight

    def deliver(self, flight: InFlight) -> None:
        """Deliver one in-flight message now."""
        if flight.delivered:
            raise ProtocolError(f"{flight!r} already delivered")
        if flight not in self.pending:
            raise ProtocolError(f"{flight!r} is not pending")
        self.pending.remove(flight)
        flight.delivered = True
        self.tick()
        if flight.kind == "comp":
            if self.blocked[flight.dst]:
                # The runtime buffers computation deliveries while the
                # destination is blocked; replayed on unblock.
                self._deferred_receives[flight.dst].append(flight)
                return
            self.processes[flight.dst].on_receive_computation(
                flight.message, lambda: self._consume(flight)
            )
        else:
            self.processes[flight.dst].on_system_message(flight.message)

    def flush_deferred(self, pid: int) -> None:
        """Replay a just-unblocked process's deferred activity in order."""
        receives, self._deferred_receives[pid] = self._deferred_receives[pid], []
        for flight in receives:
            self.processes[pid].on_receive_computation(
                flight.message, lambda f=flight: self._consume(f)
            )
        sends, self._deferred_sends[pid] = self._deferred_sends[pid], []
        for dst, payload in sends:
            self.send(pid, dst, payload)

    def _consume(self, flight: InFlight) -> None:
        message = flight.message
        dst = flight.dst
        self.received[dst][message.src_pid] += 1
        self.app_state[dst]["messages_received"] += 1
        self.trace.record(
            float(self.clock), "comp_recv", src=message.src_pid, dst=dst,
            msg_id=message.msg_id,
        )

    def initiate(self, pid: int) -> bool:
        """P_pid initiates a checkpointing process."""
        self.tick()
        return self.processes[pid].initiate()

    # -- bulk delivery helpers ---------------------------------------------------
    def pending_system(self, subkind: Optional[str] = None) -> List[InFlight]:
        """In-flight system messages (optionally of one subkind)."""
        out = []
        for flight in self.pending:
            if flight.kind != "system":
                continue
            if subkind is not None and flight.message.subkind != subkind:
                continue
            out.append(flight)
        return out

    def pending_comp(self) -> List[InFlight]:
        """In-flight computation messages."""
        return [f for f in self.pending if f.kind == "comp"]

    def deliver_all_system(self, max_rounds: int = 10000) -> int:
        """Deliver system messages (FIFO) until none remain; returns count.

        Computation messages left in flight stay in flight.
        """
        delivered = 0
        while True:
            flights = self.pending_system()
            if not flights:
                return delivered
            self.deliver(flights[0])
            delivered += 1
            if delivered > max_rounds:
                raise ProtocolError("system messages do not quiesce")

    def deliver_everything(self, max_rounds: int = 10000) -> int:
        """Deliver all in-flight messages, system first, FIFO."""
        delivered = 0
        while self.pending:
            flights = self.pending_system() or list(self.pending)
            self.deliver(flights[0])
            delivered += 1
            if delivered > max_rounds:
                raise ProtocolError("messages do not quiesce")
        return delivered

    # -- verification -------------------------------------------------------------
    def recovery_line(self) -> Dict[int, CheckpointRecord]:
        """Latest permanent checkpoint per process."""
        from repro.analysis.consistency import latest_permanent_line

        return latest_permanent_line([self.storage], range(self.n))

    def find_orphans(self):
        """Orphans of the current recovery line."""
        from repro.analysis.consistency import find_orphans

        return find_orphans(self.trace, self.recovery_line())

    def assert_consistent(self) -> None:
        """Raise unless the current recovery line passes both checkers."""
        from repro.analysis.consistency import assert_line_consistent

        assert_line_consistent(self.trace, self.recovery_line())

    def is_consistent(self) -> bool:
        """Whether the current recovery line passes both checkers."""
        from repro.analysis.consistency import check_channel_counts

        return not self.find_orphans() and bool(check_channel_counts(self.recovery_line()))
