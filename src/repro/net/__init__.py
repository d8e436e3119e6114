"""Mobile network substrate: hosts, channels, routing, mobility.

Public surface:

* :class:`~repro.net.network.MobileNetwork` — topology + routing.
* :class:`~repro.net.mss.MobileSupportStation`, :class:`~repro.net.mh.MobileHost`.
* :class:`~repro.net.channel.FifoChannel` — bandwidth/latency FIFO links.
* Message types in :mod:`repro.net.message`.
* :func:`~repro.net.mobility.handoff`, :class:`~repro.net.mobility.RandomWalkMobility`.
* :func:`~repro.net.disconnect.disconnect`, :func:`~repro.net.disconnect.reconnect`.
"""

from repro.net.channel import FifoChannel
from repro.net.disconnect import (
    BufferRecord,
    DisconnectProxy,
    DisconnectRecord,
    disconnect,
    reconnect,
)
from repro.net.message import (
    CheckpointDataMessage,
    ComputationMessage,
    Message,
    SystemMessage,
)
from repro.net.mh import MobileHost
from repro.net.mobility import RandomWalkMobility, handoff
from repro.net.mss import MobileSupportStation
from repro.net.network import MobileNetwork
from repro.net.params import NetworkParams

__all__ = [
    "BufferRecord",
    "CheckpointDataMessage",
    "ComputationMessage",
    "DisconnectProxy",
    "DisconnectRecord",
    "FifoChannel",
    "Message",
    "MobileHost",
    "MobileNetwork",
    "MobileSupportStation",
    "NetworkParams",
    "RandomWalkMobility",
    "SystemMessage",
    "disconnect",
    "handoff",
    "reconnect",
]
