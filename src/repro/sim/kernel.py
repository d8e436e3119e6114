"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of
``(time, priority, seq, callback, args)`` entries. Running the simulator
pops them in ``(time, insertion-order)`` order and invokes their
callbacks.
Everything in the reproduction — channels, hosts, protocols, workloads —
is driven by this single queue, which makes every run deterministic and
replayable for a given seed.

The kernel deliberately has no notion of "process" in the simpy sense:
entities are plain objects that schedule callbacks. This keeps the event
loop easy to reason about and trivially deterministic.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import EventBudgetExceeded, ScheduleInPastError, SimulationError
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Event
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.profiler import KernelProfiler

_heappush = heapq.heappush
_heappop = heapq.heappop

#: cancelled events tolerated in the heap before a compaction sweep is
#: even considered (tiny queues are cheaper to drain lazily)
_COMPACT_MIN_CANCELLED = 32


def _gcd(values: List[int]) -> int:
    out = values[0]
    for v in values[1:]:
        while v:
            out, v = v, out % v
    return out


class _MultiHook:
    """Dispatches several between-events hooks at their own cadences.

    Installed as the kernel's single hook slot when more than one
    consumer (snapshotter, timeseries sampler, ...) is registered. The
    kernel fires it every gcd-of-cadences events; each sub-hook keeps a
    countdown in units of that stride. Iteration order is registration
    order, so dispatch is deterministic.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: List[Tuple[Callable[[], None], int]]) -> None:
        # mutable [hook, stride, countdown] triples
        self._entries = [[hook, stride, stride] for hook, stride in entries]

    def __call__(self) -> None:
        for entry in self._entries:
            entry[2] -= 1
            if entry[2] <= 0:
                entry[2] = entry[1]
                entry[0]()


class SchedulePolicy:
    """Hook deciding *when* and *in what order* scheduled events fire.

    The kernel consults the policy once per ``schedule``/``schedule_at``
    call and uses the returned ``(when, priority)`` for the new event.
    Events are ordered by ``(time, priority, seq)``, so a policy can
    perturb event ordering two ways:

    * **delay jitter** — return a later ``when`` (the kernel clamps the
      result to ``>= now``, so a policy can never schedule into the
      past);
    * **tie-break shuffling** — return a nonzero ``priority`` to reorder
      events that share a timestamp (lower fires first; the default 0
      preserves insertion order).

    Determinism contract: a policy must be a pure function of its own
    seeded state and the sequence of ``on_schedule`` calls. The kernel
    calls it in a deterministic order (the simulation itself is
    deterministic), so a seeded policy yields bit-identical schedules on
    every replay.

    FIFO safety: callers that rely on in-order delivery (e.g. FIFO
    channels) pass a ``stream`` key; the kernel forces ``(when,
    priority)`` to be monotonically non-decreasing per stream, so a
    policy can never reorder events within a stream, only across
    streams. ``stream=None`` (the default) is unconstrained.

    The base class is the identity policy: no jitter, no shuffling.
    """

    def on_schedule(
        self, now: float, when: float, stream: Optional[Hashable]
    ) -> Tuple[float, int]:
        """Return the ``(when, priority)`` to use for a new event.

        Parameters
        ----------
        now:
            Current simulated time.
        when:
            Requested absolute fire time (``>= now``).
        stream:
            FIFO-stream key the caller tagged the event with, or ``None``.
        """
        return when, 0


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.sim.trace.TraceLog` that entities may use
        to record structured events. The kernel itself does not write to
        it; it is carried here so every entity can reach it through the
        simulator it already holds.
    policy:
        Optional :class:`SchedulePolicy` consulted on every schedule
        call. Without one the kernel behaves exactly as before (pure
        ``(time, seq)`` order).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` shared by
        every entity in the simulation (one is created if omitted). The
        kernel keeps its own hot counters as plain ints and publishes
        them via :meth:`flush_metrics`, so the event loop pays nothing
        for metrics until someone asks for a snapshot.
    """

    def __init__(
        self,
        trace: Optional[TraceLog] = None,
        policy: Optional[SchedulePolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Heap entries are (time, priority, seq, callback, args) tuples:
        # heapq compares them in C, and seq is unique, so a comparison
        # never reaches the callback.
        self._queue: List[Tuple[float, int, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self._now: float = 0.0
        self._events_processed: int = 0
        self._running = False
        self._stop_requested = False
        self._policy = policy
        self._profiler: Optional["KernelProfiler"] = None
        self._burn: Optional[Callable[[], None]] = None
        self._snap_hook: Optional[Callable[[], None]] = None
        self._snap_every = 0
        self._snap_countdown = 0
        self._hooks: Dict[str, Tuple[Callable[[], None], int]] = {}
        self._stream_floors: Dict[Hashable, Tuple[float, int]] = {}
        #: seqs of cancelled entries still in the heap
        self._cancelled: Set[int] = set()
        self.trace: TraceLog = trace if trace is not None else TraceLog()
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    @property
    def policy(self) -> Optional[SchedulePolicy]:
        """The active :class:`SchedulePolicy`, if any."""
        return self._policy

    def set_policy(self, policy: Optional[SchedulePolicy]) -> None:
        """Install (or clear) the schedule policy.

        Only affects events scheduled after the call; install the policy
        before the first event for a fully perturbed run. Per-stream
        FIFO floors are reset, since they only constrain policy output.
        """
        self._policy = policy
        self._stream_floors.clear()

    @property
    def profiler(self) -> Optional["KernelProfiler"]:
        """The attached :class:`~repro.obs.profiler.KernelProfiler`, if any."""
        return self._profiler

    def set_profiler(self, profiler: Optional["KernelProfiler"]) -> None:
        """Attach (or detach) a kernel profiler.

        While attached, every dispatched event is wall-clock timed and
        attributed to its callback's qualified name, and heap pushes /
        cancelled pops are counted. Detached runs pay one ``is not
        None`` check per event.
        """
        self._profiler = profiler

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been invoked."""
        return self._events_processed

    def flush_metrics(self) -> None:
        """Publish the kernel's counters into the metrics registry.

        Sets ``kernel.events_processed`` and ``kernel.pending_events``
        from the kernel's internal tallies. Idempotent — call it right
        before taking a snapshot.
        """
        self.metrics.gauge("kernel.events_processed").set(
            float(self._events_processed)
        )
        self.metrics.gauge("kernel.pending_events").set(float(self.pending_events))
        self.metrics.gauge("kernel.now").set(self._now)

    @property
    def pending_events(self) -> int:
        """Number of events in the queue, including cancelled ones."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still sitting in the heap.

        Bounded: once more than half the heap is cancelled (and the dead
        fraction is non-trivial in absolute terms), the kernel compacts
        the heap in place, so long runs with many cancelled timers never
        pay O(dead) pop costs.
        """
        return len(self._cancelled)

    def set_burn(self, burn: Optional[Callable[[], None]]) -> None:
        """Install a per-event burn hook (benchmark self-test only).

        While set, ``burn()`` is invoked before every dispatched event —
        the supported way for the bench harness to plant an artificial
        slowdown. Unset, it costs one local ``is not None`` test per
        event.
        """
        self._burn = burn

    def set_between_events_hook(
        self, key: str, hook: Optional[Callable[[], None]], check_every: int = 1
    ) -> None:
        """Install (or clear, with ``hook=None``) a keyed between-events hook.

        Several consumers may register under distinct keys (the
        snapshotter under ``"snapshot"``, the timeseries sampler under
        ``"timeseries"``); with more than one, the kernel dispatches a
        composed :class:`_MultiHook` every gcd-of-cadences events and
        each hook still fires at its own ``check_every``. With exactly
        one, it is installed directly. The same contract applies to
        every hook: it fires *between* event callbacks — never
        re-entrantly inside one — so the heap, clock and counters are
        consistent whenever it observes them, and it must not schedule events or
        mutate kernel state, so hooks are invisible to the simulation.
        The loop notices a hook installed from inside an event callback
        on the next :meth:`run`/:meth:`step` call; a hook may clear or
        re-key itself while it runs. Without any hook the loop pays one
        local test per event.
        """
        if hook is not None and check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every!r}")
        if hook is None:
            self._hooks.pop(key, None)
        else:
            self._hooks[key] = (hook, check_every)
        self._recompose_hooks()

    def _recompose_hooks(self) -> None:
        hooks = list(self._hooks.values())
        if not hooks:
            self._snap_hook = None
            self._snap_every = 0
            self._snap_countdown = 0
        elif len(hooks) == 1:
            hook, every = hooks[0]
            self._snap_hook = hook
            self._snap_every = every
            self._snap_countdown = every
        else:
            stride = _gcd([every for _, every in hooks])
            self._snap_hook = _MultiHook(
                [(hook, every // stride) for hook, every in hooks]
            )
            self._snap_every = stride
            self._snap_countdown = stride

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: the kernel snapshots as *paused*.

        Wall-clock instrumentation (profiler, burn hook) and the
        snapshot hook hold live callbacks into harness objects; they are
        dropped here and re-attached by the restore path — see
        ``repro.snapshot.state``. Other keyed hooks (the timeseries
        sampler's) travel. ``_running``/``_stop_requested`` reset
        so a simulator pickled mid-``run()`` resumes cleanly.
        """
        state = self.__dict__.copy()
        state["_running"] = False
        state["_stop_requested"] = False
        state["_profiler"] = None
        state["_burn"] = None
        state["_snap_hook"] = None  # recomposed from _hooks on load
        state["_hooks"] = {k: v for k, v in self._hooks.items() if k != "snapshot"}
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # snapshots written before keyed hooks existed lack the registry
        self.__dict__.setdefault("_hooks", {})
        if "_free" in state:
            # written while an entry was (time, priority, seq, Event) and
            # fired handles went back to a freelist: each handle becomes
            # its entry's callback, and a cancelled one's seq is noted
            del self._free, self._cancelled_pending
            self._cancelled = set()
            for _, _, seq, event in self._queue:
                if event._cancelled:
                    self._cancelled.add(seq)
                event.owner = None if event._cancelled else self
            self._queue = [(*entry, ()) for entry in self._queue]
        self._recompose_hooks()

    def stop(self) -> None:
        """Ask the running event loop to halt after the current event.

        Only meaningful from inside an event callback during :meth:`run`;
        the flag is cleared on the next :meth:`run` call.
        """
        self._stop_requested = True

    # -- cancelled-entry accounting (called from Event.cancel) ----------
    def _cancel(self, seq: int) -> None:
        cancelled = self._cancelled
        cancelled.add(seq)
        if (
            len(cancelled) > _COMPACT_MIN_CANCELLED
            and len(cancelled) * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) so the loop, which bound the heap to
        a local, keeps operating on the live one. Pop order is fully
        determined by the (time, priority, seq) keys, so a rebuild never
        changes the dispatch sequence.
        """
        cancelled = self._cancelled
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[2] not in cancelled]
        heapq.heapify(queue)
        cancelled.clear()

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        stream: Optional[Hashable] = None,
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        A zero delay is allowed and fires after all previously scheduled
        events at the current instant (FIFO within a timestamp).
        ``stream`` tags the event with a FIFO-stream key for the
        :class:`SchedulePolicy` (ignored without a policy). Nothing is
        returned: an event that may have to be cancelled is a
        :meth:`timer`.
        """
        if delay < 0:
            raise ScheduleInPastError(self._now, self._now + delay)
        self.schedule_at(self._now + delay, callback, *args, stream=stream)

    def timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """:meth:`schedule` ``callback(*args)``, and return a handle that
        can cancel it: the :class:`Event` is the entry's callback."""
        if delay < 0:
            raise ScheduleInPastError(self._now, self._now + delay)
        event = Event(self._seq, callback, args, self)
        self.schedule_at(self._now + delay, event)
        return event

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        stream: Optional[Hashable] = None,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ScheduleInPastError(self._now, when)
        priority = 0
        if self._policy is not None:
            when, priority = self._policy.on_schedule(self._now, when, stream)
            if when < self._now:
                when = self._now
            if stream is not None:
                # Per-stream monotone floor: a policy may delay or
                # reprioritize a stream's events but never reorder them.
                floor = self._stream_floors.get(stream)
                if floor is not None and (when, priority) < floor:
                    when, priority = floor
                self._stream_floors[stream] = (when, priority)
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        _heappush(queue, (when, priority, seq, callback, args))
        if self._profiler is not None:
            self._profiler.on_push(len(queue))

    def step(self) -> bool:
        """Process the next non-cancelled event.

        Returns ``False`` when the queue is exhausted, ``True`` otherwise.
        """
        before = self._events_processed
        self._dispatch(None, None, one=True)
        return self._events_processed > before

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time. Events scheduled at
            exactly ``until`` are processed; the clock ends at ``until``
            even if the queue drained earlier, so periodic measurements
            spanning the full horizon are well defined.
        max_events:
            Safety valve: raise :class:`~repro.errors.EventBudgetExceeded`
            (a :class:`SimulationError`) if more than this
            many events are processed (catches runaway feedback loops in
            protocol code).
        """
        if self._running:
            raise SimulationError("run() called reentrantly")
        self._running = True
        self._stop_requested = False
        try:
            self._dispatch(until, max_events)
            if until is not None and self._now < until and not self._stop_requested:
                self._now = until
        finally:
            self._running = False

    def _dispatch(
        self, until: Optional[float], max_events: Optional[int], one: bool = False
    ) -> None:
        """The event loop — the only place that pops the heap.

        :meth:`run` and :meth:`step` (``one=True``: return after a
        single live event) both come through here, so every way of
        driving the kernel shares one dispatch order and one set of
        books (cancelled set, hook countdown). The queue, cancelled set,
        profiler, burn hook and "is a hook armed" flag are bound to
        locals; each optional feature costs one local test per event
        when unused, and so does the cancelled set while it is empty.
        """
        queue = self._queue
        pop = _heappop
        cancelled = self._cancelled
        profiler = self._profiler
        burn = self._burn
        hooked = self._snap_hook is not None
        budget = (
            None if max_events is None else self._events_processed + max_events
        )
        while queue:
            entry = pop(queue)
            if cancelled and entry[2] in cancelled:
                cancelled.remove(entry[2])
                if profiler is not None:
                    profiler.on_cancelled_pop()
                continue
            when = entry[0]
            if until is not None and when > until:
                _heappush(queue, entry)
                break
            if budget is not None and self._events_processed >= budget:
                _heappush(queue, entry)
                raise EventBudgetExceeded(
                    f"exceeded max_events={max_events} (runaway simulation?)"
                )
            self._now = when
            self._events_processed += 1
            if burn is not None:
                burn()
            if profiler is None:
                entry[3](*entry[4])
            else:
                callback = entry[3]
                started = perf_counter()
                callback(*entry[4])
                if type(callback) is Event:  # a timer: report what it ran
                    callback = callback.callback
                profiler.on_event(callback, perf_counter() - started, len(queue))
            if hooked:
                self._snap_countdown -= 1
                if self._snap_countdown <= 0:
                    self._snap_countdown = self._snap_every
                    self._snap_hook()
                    # the hook may have cleared (or re-composed) the slot
                    hooked = self._snap_hook is not None
            if one or self._stop_requested:
                break

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue is completely drained."""
        self.run(until=None, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f} pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
