"""Message types exchanged in the simulated mobile system.

The paper distinguishes *computation messages* (generated by the
application) from *system messages* (generated by the checkpointing
protocol). Both are routed identically; they differ in size and in which
handler consumes them at the destination process.

Checkpoint *data* transfers (an MH shipping 512 KB of checkpoint state to
its MSS) are modelled as a third kind so that they occupy the wireless
link like any other traffic without being confused with protocol control
messages.

Hot-path notes: messages are plain ``__slots__`` classes (one is built
per application send, so dataclass machinery and default-dict factories
were measurable), and what a computation message carries besides its
payload - the csn/trigger pair the mutable protocol attaches and the
sender's incarnation - rides in slots of its own, so a send allocates
no dict.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, Optional

#: Default payload sizes in bytes, from the paper's simulation model (§5.1).
COMPUTATION_MESSAGE_BYTES = 1024
SYSTEM_MESSAGE_BYTES = 50
CHECKPOINT_DATA_BYTES = 512 * 1024

#: ids for messages built by hand outside any system or harness (each of
#: those passes ``msg_id`` from a counter of its own)
_message_ids = count()


class Message:
    """Base class for everything that travels through a channel.

    Attributes
    ----------
    src_pid / dst_pid:
        Logical process ids. ``dst_pid`` of ``None`` with ``broadcast``
        True means "all processes".
    size_bytes:
        Wire size used to compute transmission delay.
    msg_id:
        Unique id for tracing. Inside a system or a scenario harness,
        drawn from its counter; hand-built messages fall back to the
        module one.
    """

    __slots__ = ("src_pid", "dst_pid", "size_bytes", "broadcast", "msg_id")

    #: short tag used in traces; overridden by subclasses
    kind = "message"

    def __init__(
        self,
        src_pid: int,
        dst_pid: Optional[int],
        size_bytes: int = COMPUTATION_MESSAGE_BYTES,
        broadcast: bool = False,
        msg_id: Optional[int] = None,
    ) -> None:
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        self.size_bytes = size_bytes
        self.broadcast = broadcast
        self.msg_id = next(_message_ids) if msg_id is None else msg_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} #{self.msg_id} "
            f"{self.src_pid}->{self.dst_pid} {self.size_bytes}B>"
        )


class ComputationMessage(Message):
    """An application-level message.

    ``payload`` is opaque application data (the workload stores a
    sequence number there); the application never sees the rest.
    :attr:`pb` is the ``(csn, trigger)`` pair the mutable-checkpoint
    family attaches to every send (read it with :meth:`protocol_tags`),
    and :attr:`inc` the sender's incarnation: a receiver already in a
    later incarnation drops the message.
    """

    __slots__ = ("payload", "pb", "inc")

    kind = "computation"

    def __init__(
        self,
        src_pid: int,
        dst_pid: Optional[int],
        size_bytes: int = COMPUTATION_MESSAGE_BYTES,
        broadcast: bool = False,
        msg_id: Optional[int] = None,
        payload: Any = None,
    ) -> None:
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        self.size_bytes = size_bytes
        self.broadcast = broadcast
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.payload = payload
        self.pb = None
        self.inc = 0

    def __setstate__(self, state) -> None:
        # An image written while messages carried a vector-clock stamp
        # has a ``vc`` slot, which nothing reads any more; one written
        # while extras rode in a dict has ``_piggyback``, whose only key
        # still read is the incarnation.
        slots = dict(state[1])
        slots.pop("vc", None)
        extras = slots.pop("_piggyback", None) or {}
        self.inc = extras.get("inc", 0)
        for name, value in slots.items():
            setattr(self, name, value)

    def protocol_tags(self) -> tuple:
        """The ``(csn, trigger)`` pair attached at send time
        (``(0, None)`` when the sender attached none)."""
        pb = self.pb
        return (0, None) if pb is None else pb


class SystemMessage(Message):
    """A checkpointing-protocol control message (request/reply/commit/...).

    ``subkind`` names the protocol message type; ``fields`` carries the
    protocol payload. Defaults to the paper's 50-byte control size.
    """

    __slots__ = ("subkind", "fields")

    kind = "system"

    def __init__(
        self,
        src_pid: int,
        dst_pid: Optional[int],
        size_bytes: int = SYSTEM_MESSAGE_BYTES,
        broadcast: bool = False,
        msg_id: Optional[int] = None,
        subkind: str = "system",
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        self.size_bytes = size_bytes
        self.broadcast = broadcast
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.subkind = subkind
        self.fields = {} if fields is None else fields

    def __setstate__(self, state) -> None:
        # An image written while the payload was materialized lazily has
        # a ``_fields`` slot, ``None`` for a message that never had one.
        slots = dict(state[1])
        if "_fields" in slots:
            slots["fields"] = slots.pop("_fields") or {}
        for name, value in slots.items():
            setattr(self, name, value)


class CheckpointDataMessage(Message):
    """Bulk checkpoint state moving from an MH to its MSS stable storage.

    ``on_stored`` is invoked (in simulation) once the data has been
    written to stable storage; protocols use it to delay their reply
    until the transfer completes, so T_ch includes T_data as in §5.3.
    """

    __slots__ = ("checkpoint_ref", "on_stored")

    kind = "checkpoint_data"

    def __init__(
        self,
        src_pid: int,
        dst_pid: Optional[int],
        size_bytes: int = CHECKPOINT_DATA_BYTES,
        broadcast: bool = False,
        msg_id: Optional[int] = None,
        checkpoint_ref: Any = None,
        on_stored: Optional[Any] = None,
    ) -> None:
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        self.size_bytes = size_bytes
        self.broadcast = broadcast
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.checkpoint_ref = checkpoint_ref
        self.on_stored = on_stored
