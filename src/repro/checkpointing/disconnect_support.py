"""Checkpointing support for disconnected mobile hosts (paper §2.2).

Before disconnecting, an MH takes a local checkpoint and leaves it — the
``disconnect_checkpoint`` — with its MSS, together with its dependency
information. If a checkpoint request arrives while the MH is away, *the
MSS acts on the process's behalf*: it converts the disconnect checkpoint
into the process's new checkpoint (no wireless transfer needed — the
data is already at the MSS) and propagates requests using the saved
dependency vector.

Implementation: the per-process protocol instance keeps running inside
the simulator with its one :class:`~repro.core.process.RuntimeEnv`,
which acts from wherever the host is. While the MH is disconnected that
is the MSS holding its disconnect record: system messages leave from
there, and checkpoints are stored there the way an on-MSS process's are
(no wireless transfer). Because no local events occur at a disconnected
MH, the process state captured by the MSS equals the disconnect
checkpoint — the equivalence §2.2 relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.core.process import AppProcess
from repro.errors import ProtocolError
from repro.net.disconnect import DisconnectProxy, DisconnectRecord
from repro.net.disconnect import disconnect as net_disconnect
from repro.net.disconnect import reconnect as net_reconnect
from repro.net.message import SystemMessage
from repro.net.mh import MobileHost
from repro.net.mss import MobileSupportStation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


class MutableDisconnectProxy(DisconnectProxy):
    """The MSS-side agent for a disconnected process (mutable protocol)."""

    def __init__(self, process: AppProcess) -> None:
        self.process = process

    def handle_system_message(
        self,
        mss: MobileSupportStation,
        record: DisconnectRecord,
        message: SystemMessage,
    ) -> bool:
        protocol_process = self.process.protocol_process
        old_csn_before = getattr(protocol_process, "old_csn", None)
        # the process's own entry point: recovery subkinds (rollback
        # requests) reach their handlers as at a connected host
        self.process.on_message(message)
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
    hands the protocol proxy to it, and drops the wireless link. The
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
    return net_disconnect(
        system.network,
        host,
        checkpoint,
        MutableDisconnectProxy(process),
        checkpoint_bytes=system.config.checkpoint_size_bytes,
    )


def reconnect_process(
    system: "MobileSystem", pid: int, new_mss: Optional[MobileSupportStation] = None
) -> DisconnectRecord:
    """Reconnect ``pid``'s MH (by default at the first MSS) and replay
    the traffic buffered for it."""
    host = system.processes[pid].host
    if not isinstance(host, MobileHost):
        raise ProtocolError(f"pid {pid} does not run on a mobile host")
    target = new_mss if new_mss is not None else system.mss_list[0]
    return net_reconnect(system.network, host, target)
