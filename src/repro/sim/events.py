"""Event primitives for the discrete-event simulation kernel.

A pending event is only its heap entry, the tuple ``(time, priority,
seq, callback, args)``. Entries are totally ordered by ``(time,
priority, seq)`` where ``seq`` is a monotonically increasing insertion
counter; the tie-break makes runs deterministic regardless of heap
internals. ``priority`` defaults to 0 and is only ever set by a
:class:`~repro.sim.kernel.SchedulePolicy`, so without a policy the order
degenerates to the classic ``(time, seq)`` FIFO-within-a-timestamp
order.

An :class:`Event` is the handle of an entry that may be cancelled.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A cancellable scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.timer`;
    user code should treat them as opaque handles, using only
    :meth:`cancel` and :attr:`cancelled`. The handle is its heap entry's
    callback: firing marks it fired, then runs ``callback(*args)``.

    ``owner`` is the kernel while the entry is pending and ``None`` once
    it fired or was cancelled; it is managed entirely by the
    :class:`Simulator`.
    """

    __slots__ = ("seq", "callback", "args", "_cancelled", "owner")

    def __init__(
        self, seq: int, callback: Callable[..., Any], args: tuple, owner: Any
    ) -> None:
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self.owner = owner

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an event that already fired or was already cancelled is
        a no-op; the kernel lazily discards cancelled entries when they
        reach the head of the queue (or earlier, when a compaction sweep
        rebuilds a mostly-cancelled heap).
        """
        self._cancelled = True
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._cancel(self.seq)

    def __call__(self) -> None:
        self.owner = None  # fired: a later cancel is a no-op
        self.callback(*self.args)

    def __setstate__(self, state: tuple) -> None:
        # an image written while the handle was the heap entry itself also
        # holds its time and priority, which the entry tuple keeps now
        slots = state[1]
        for name in self.__slots__:
            setattr(self, name, slots[name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event seq={self.seq} {name}{state}>"
