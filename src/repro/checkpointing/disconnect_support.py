"""Checkpointing support for disconnected mobile hosts (paper §2.2).

Before disconnecting, an MH takes a local checkpoint and leaves it — the
``disconnect_checkpoint`` — with its MSS, together with its dependency
information. If a checkpoint request arrives while the MH is away, *the
MSS acts on the process's behalf*: it converts the disconnect checkpoint
into the process's new checkpoint (no wireless transfer needed — the
data is already at the MSS) and propagates requests using the saved
dependency vector.

Implementation: the per-process protocol instance keeps running inside
the simulator, but while the MH is disconnected its environment is
swapped for :class:`MssProxyEnv`, which originates traffic at the MSS
and stores checkpoints directly (zero wireless cost). Because no local
events occur at a disconnected MH, the process state captured by the MSS
equals the disconnect checkpoint — the equivalence §2.2 relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.core.process import AppProcess, RuntimeEnv
from repro.errors import ProtocolError
from repro.net.disconnect import DisconnectProxy, DisconnectRecord
from repro.net.disconnect import disconnect as net_disconnect
from repro.net.disconnect import reconnect as net_reconnect
from repro.net.message import SystemMessage
from repro.net.mh import MobileHost
from repro.net.mss import MobileSupportStation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


class MssProxyEnv(RuntimeEnv):
    """Environment that originates protocol actions at the serving MSS."""

    def __init__(self, process: AppProcess, mss: MobileSupportStation) -> None:
        super().__init__(process)
        self.mss = mss

    def send_system(self, dst_pid: int, subkind: str, fields: Dict[str, Any]) -> None:
        message = SystemMessage(
            src_pid=self.pid,
            dst_pid=dst_pid,
            subkind=subkind,
            fields=fields,
            msg_id=self._next_msg_id(),
        )
        self._m_sys_messages.inc()
        self.system.metrics.counter(f"system_messages_{subkind}").inc()
        trace = self.system.sim.trace
        if trace.debug_on:
            trace.debug(
                self.system.sim.now,
                "sys_send",
                src=self.pid,
                dst=dst_pid,
                subkind=subkind,
                via_mss=True,
            )
        self.mss.send(message)

    def broadcast_system(self, subkind: str, fields: Dict[str, Any]) -> int:
        self._m_broadcasts.inc()
        sent = 0
        for pid in self.system.network.process_ids:
            if pid == self.pid:
                continue
            message = SystemMessage(
                src_pid=self.pid,
                dst_pid=pid,
                subkind=subkind,
                fields=dict(fields),
                msg_id=self._next_msg_id(),
            )
            message.broadcast = True
            self.mss.send(message)
            sent += 1
        return sent

    def transfer_to_stable(
        self, record: CheckpointRecord, on_saved: Callable[[], None]
    ) -> None:
        # The disconnect checkpoint already lives at this MSS: converting
        # it costs no wireless transfer, only the disk write.
        record.size_bytes = self.system.config.checkpoint_size_bytes
        assert self.mss.stable_storage is not None
        self.mss.stable_storage.store(record)
        delay = self.system.config.network.stable_write_time
        if delay > 0:
            self.system.sim.schedule(delay, on_saved)
        else:
            on_saved()


class MutableDisconnectProxy(DisconnectProxy):
    """The MSS-side agent for a disconnected process (mutable protocol)."""

    def __init__(self, process: AppProcess, mss: MobileSupportStation) -> None:
        self.process = process
        self.mss = mss
        process.protocol_process.env = MssProxyEnv(process, mss)

    def handle_system_message(
        self,
        mss: MobileSupportStation,
        record: DisconnectRecord,
        message: SystemMessage,
    ) -> bool:
        protocol_process = self.process.protocol_process
        old_csn_before = getattr(protocol_process, "old_csn", None)
        protocol_process.on_system_message(message)
        if (
            message.subkind == "request"
            and old_csn_before is not None
            and protocol_process.old_csn != old_csn_before
        ):
            # The MSS converted the disconnect checkpoint into a real one.
            record.checkpoint_taken_on_behalf = True
        return True


def disconnect_process(system: "MobileSystem", pid: int) -> DisconnectRecord:
    """Voluntarily disconnect the MH hosting ``pid`` (§2.2 procedure).

    Takes the disconnect checkpoint, stores it at the serving MSS,
    installs the protocol proxy, and drops the wireless link. The
    workload must not send from this process until reconnection (no send
    events occur while disconnected).
    """
    process = system.processes[pid]
    host = process.host
    if not isinstance(host, MobileHost):
        raise ProtocolError(f"pid {pid} does not run on a mobile host")
    mss = host.mss
    if mss is None:
        raise ProtocolError(f"{host.name} has no serving MSS")
    sent, received = process.capture_channels()
    checkpoint = CheckpointRecord(
        pid=pid,
        csn=-1,
        kind=CheckpointKind.DISCONNECT,
        time_taken=system.sim.now,
        ckpt_id=next(system.checkpoint_ids),
        state=process.capture_state(),
        trigger=None,
        sent=sent,
        received=received,
        size_bytes=system.config.checkpoint_size_bytes,
    )
    assert mss.stable_storage is not None
    mss.stable_storage.store(checkpoint)
    proxy = MutableDisconnectProxy(process, mss)
    record = net_disconnect(
        system.network,
        host,
        checkpoint,
        proxy,
        checkpoint_bytes=system.config.checkpoint_size_bytes,
    )
    return record


def reconnect_process(
    system: "MobileSystem", pid: int, new_mss: Optional[MobileSupportStation] = None
) -> DisconnectRecord:
    """Reconnect ``pid``'s MH (possibly at a different MSS).

    Restores the normal environment before the buffered messages replay,
    so they are handled by the process itself, not the proxy.
    """
    process = system.processes[pid]
    host = process.host
    if not isinstance(host, MobileHost):
        raise ProtocolError(f"pid {pid} does not run on a mobile host")
    target = new_mss if new_mss is not None else system.mss_list[0]
    # Swap the env back *before* replay so buffered traffic is processed
    # by the reconnected process.
    env = process.protocol_process.env
    if isinstance(env, MssProxyEnv):
        process.protocol_process.env = RuntimeEnv(process)
    record = net_reconnect(system.network, host, target)
    return record
