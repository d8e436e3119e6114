"""Mobile support stations (MSSs).

An MSS is a static host on the wired backbone. It owns a cell: the
mobile hosts whose ``mss`` it is, each reached over the host's own
``downlink``. The MSS provides the stable storage where
tentative/permanent checkpoints live, and holds the traffic of the MHs
in its custody (the network's ``custody`` map names it): it buffers it
for a host between cells, and acts on a disconnected host's behalf
(paper §2.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.net.message import Message
from repro.net.node import Host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import MobileNetwork


class MobileSupportStation(Host):
    """A static host with stable storage and a cell of mobile hosts."""

    def __init__(self, network: "MobileNetwork", name: str) -> None:
        super().__init__(network, name)
        # Shared-medium accounting for bulk checkpoint transfers within
        # this cell (see NetworkParams.shared_cell_medium). Bulk volume
        # itself is counted in the registry (``net.bulk_bytes``).
        self.bulk_busy_until = 0.0
        # Assigned by the system builder; kept loosely typed so the net
        # layer does not depend on the checkpointing layer.
        self.stable_storage: Any = None

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
