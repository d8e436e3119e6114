"""Host base class shared by mobile hosts and mobile support stations.

A host is a named node that processes run on. The host forwards messages
arriving for a local process to the handler that the process registered,
and hands outbound messages to the network for routing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.errors import UnknownHostError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import MobileNetwork

ProcessHandler = Callable[[Message], None]


class Host:
    """A network node hosting zero or more processes."""

    #: hosts are reachable unless a MobileHost flips its instance flag;
    #: a class-level default lets hot paths read it as a plain attribute
    disconnected = False

    def __init__(self, network: "MobileNetwork", name: str) -> None:
        self.network = network
        self.name = name
        self.sim = network.sim
        self._process_handlers: Dict[int, ProcessHandler] = {}

    @property
    def process_ids(self) -> tuple:
        """Ids of processes currently attached to this host."""
        return tuple(self._process_handlers)

    def attach_process(self, pid: int, handler: ProcessHandler) -> None:
        """Register ``handler`` to receive messages addressed to ``pid``."""
        if pid in self._process_handlers:
            raise ValueError(f"pid {pid} already attached to {self.name}")
        self._process_handlers[pid] = handler
        self.network.register_process(pid, self)

    def deliver_to_process(self, message: Message) -> None:
        """Hand an arrived message to the destination process's handler."""
        handler = self._process_handlers.get(message.dst_pid)
        if handler is None:
            raise UnknownHostError(
                f"{self.name} has no process {message.dst_pid} for message {message.msg_id}"
            )
        handler(message)

    def send(self, message: Message) -> None:
        """Route an outbound message from a local process. Overridden."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} pids={list(self._process_handlers)}>"
