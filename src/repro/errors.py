"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError` so
callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """An error in the discrete-event simulation kernel."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(f"cannot schedule event at t={when!r}; clock is at t={now!r}")
        self.now = now
        self.when = when


class NetworkError(ReproError):
    """An error in the network substrate."""


class UnknownHostError(NetworkError):
    """A message was addressed to a host that does not exist."""


class NotConnectedError(NetworkError):
    """An operation required a wireless link that is not currently up."""


class ProtocolError(ReproError):
    """A checkpointing protocol violated one of its internal invariants."""


class InconsistentCheckpointError(ProtocolError):
    """A committed global checkpoint failed a consistency check."""


class ConfigurationError(ReproError):
    """An experiment configuration is invalid."""


class StorageError(ReproError):
    """A checkpoint storage operation failed."""


class SnapshotError(ReproError):
    """A simulator snapshot could not be written, read, or restored."""


class StoreFormatError(ReproError):
    """A result-store file holds a line that parses but is no point record."""


class TraceFormatError(ReproError):
    """A trace file holds a line that is not a ``{"t", "k", "f"}`` record."""
