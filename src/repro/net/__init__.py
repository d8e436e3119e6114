"""Mobile network substrate: hosts, channels, routing, mobility.

Public surface:

* :class:`~repro.net.network.MobileNetwork` — topology + routing.
* :class:`~repro.net.mss.MobileSupportStation`, :class:`~repro.net.mh.MobileHost`.
* :class:`~repro.net.channel.FifoChannel` — bandwidth/latency FIFO links.
* Message types in :mod:`repro.net.message`.
* :func:`~repro.net.mobility.handoff`, :class:`~repro.net.mobility.RandomWalkMobility`.
* :func:`~repro.net.disconnect.disconnect`, :func:`~repro.net.disconnect.reconnect`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BufferRecord": "disconnect",
    "CheckpointDataMessage": "message",
    "ComputationMessage": "message",
    "DisconnectProxy": "disconnect",
    "DisconnectRecord": "disconnect",
    "FifoChannel": "channel",
    "Message": "message",
    "MobileHost": "mh",
    "MobileNetwork": "network",
    "MobileSupportStation": "mss",
    "NetworkParams": "params",
    "RandomWalkMobility": "mobility",
    "SystemMessage": "message",
    "disconnect": "disconnect",
    "handoff": "mobility",
    "reconnect": "disconnect",
})

# ``disconnect`` names both a submodule and its function. Whoever imports
# the submodule first rebinds the name to the module, so import it now
# and bind the function over it, as an eager ``__init__`` did.
from repro.net.disconnect import disconnect  # noqa: E402
