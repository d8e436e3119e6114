"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a callback scheduled to fire at a simulated time.
Events are totally ordered by ``(time, priority, seq)`` where ``seq`` is
a monotonically increasing insertion counter; the tie-break makes runs
deterministic regardless of heap internals. ``priority`` defaults to 0
and is only ever set by a :class:`~repro.sim.kernel.SchedulePolicy`, so
without a policy the order degenerates to the classic ``(time, seq)``
FIFO-within-a-timestamp order.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code should treat them as opaque handles, using only
    :meth:`cancel` and :attr:`cancelled`.

    ``owner`` is the kernel backref used for cancelled-event accounting
    (so the heap can be compacted when mostly dead) and for freelist
    recycling; it is managed entirely by the :class:`Simulator`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        priority: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self.owner = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an event that already fired or was already cancelled is
        a no-op; the kernel lazily discards cancelled events when they
        reach the head of the queue (or earlier, when a compaction sweep
        rebuilds a mostly-cancelled heap).
        """
        if not self._cancelled:
            self._cancelled = True
            owner = self.owner
            if owner is not None:
                owner._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} seq={self.seq} {name}{state}>"
