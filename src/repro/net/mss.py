"""Mobile support stations (MSSs).

An MSS is a static host on the wired backbone. It owns a cell: the set
of mobile hosts currently attached to it by wireless channels. The MSS
provides the stable storage where tentative/permanent checkpoints live,
buffers traffic for disconnected MHs, and acts on their behalf during
disconnection (paper §2.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import UnknownHostError
from repro.net.message import Message
from repro.net.node import Host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.channel import FifoChannel
    from repro.net.disconnect import DisconnectRecord
    from repro.net.mh import MobileHost
    from repro.net.network import MobileNetwork


class MobileSupportStation(Host):
    """A static host with stable storage and a cell of mobile hosts."""

    def __init__(self, network: "MobileNetwork", name: str) -> None:
        super().__init__(network, name)
        self.attached_mhs: Dict[str, "MobileHost"] = {}
        self._downlinks: Dict[str, "FifoChannel"] = {}
        # Shared-medium accounting for bulk checkpoint transfers within
        # this cell (see NetworkParams.shared_cell_medium). Bulk volume
        # itself is counted in the registry (``net.bulk_bytes``).
        self.bulk_busy_until = 0.0
        # Assigned by the system builder; kept loosely typed so the net
        # layer does not depend on the checkpointing layer.
        self.stable_storage: Any = None
        self.disconnect_records: Dict[str, "DisconnectRecord"] = {}

    # -- cell management ---------------------------------------------------
    def register_mh(self, mh: "MobileHost", downlink: "FifoChannel") -> None:
        """Add ``mh`` to this cell with its MSS-to-MH channel."""
        self.attached_mhs[mh.name] = mh
        self._downlinks[mh.name] = downlink

    def unregister_mh(self, mh: "MobileHost") -> "FifoChannel":
        """Remove ``mh`` from the cell (handoff); returns the old downlink."""
        self.attached_mhs.pop(mh.name, None)
        try:
            return self._downlinks.pop(mh.name)
        except KeyError:
            raise UnknownHostError(f"{mh.name} not attached to {self.name}") from None

    def downlink_to(self, mh_name: str) -> "FifoChannel":
        """The MSS-to-MH channel for an attached mobile host."""
        try:
            return self._downlinks[mh_name]
        except KeyError:
            raise UnknownHostError(f"{mh_name} not attached to {self.name}") from None

    # -- traffic -----------------------------------------------------------
    def send(self, message: Message) -> None:
        """Route a message originated by a process running on this MSS, or
        on behalf of a disconnected MH whose record it holds (§2.2)."""
        self.network.route_from_mss(self, message)

    def on_wireless_arrival(self, message: Message) -> None:
        """Uplink delivery from an attached MH: continue routing.

        Checkpoint data transfers terminate here: they are written to
        this MSS's stable storage rather than routed onward.
        """
        if message.kind == "checkpoint_data":
            self._store_checkpoint_data(message)
            return
        self.network.route_from_mss(self, message)

    def _store_checkpoint_data(self, message: Message) -> None:
        record = message.checkpoint_ref
        # A record demoted while in flight (aborted initiation) is dropped.
        if record is not None and getattr(record, "is_stable", False):
            if self.stable_storage is not None:
                self.stable_storage.store(record)
            callback = getattr(message, "on_stored", None)
            if callback is not None:
                callback()

    def on_wired_arrival(self, message: Message) -> None:
        """Delivery from another MSS over the backbone: continue routing."""
        self.network.route_from_mss(self, message)

    def deliver_local(self, message: Message) -> None:
        """Deliver to a process on this MSS or to an MH in this cell."""
        if self.hosts_process(message.dst_pid):
            self.deliver_to_process(message)
            return
        mh = self.network.mh_of_process(message.dst_pid)
        if mh is None or mh.name not in self.attached_mhs and mh.name not in self.disconnect_records:
            raise UnknownHostError(
                f"{self.name} asked to deliver msg {message.msg_id} for pid "
                f"{message.dst_pid} but does not host it"
            )
        record = self.disconnect_records.get(mh.name)
        if record is not None:
            record.absorb(self, message)
            return
        self.downlink_to(mh.name).send(message)

    def disconnect_record_for(self, mh_name: str) -> Optional["DisconnectRecord"]:
        """The disconnect record for ``mh_name`` if it is disconnected."""
        return self.disconnect_records.get(mh_name)
