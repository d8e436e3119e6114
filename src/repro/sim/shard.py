"""Conservative windowed sharding of one simulation (ROADMAP item 2).

A :class:`ShardedSimulator` partitions a :class:`~repro.core.system.MobileSystem`
by cell/MSS into N shards, each with its own event heap, and executes
them under a **barrier-window** scheme: at every barrier the kernel
computes the safe horizon

    ``horizon = min(earliest event over nonempty shards) + lookahead``

where ``lookahead`` is the minimum cross-shard link delay (every
cross-cell path traverses a wired MSS↔MSS hop, whose latency is a
static lower bound — contention and transmission time only push
arrivals later; see docs/SCALING.md). Events strictly before the
horizon are safe to execute without any shard observing a message
from its future; cross-shard schedules are counted as timestamped
*envelopes*, and any envelope landing inside the open window is a
*lookahead violation* (a place where a distributed engine would need
a finer bound).

The engine here is the **inline canonical-merge backend**: all N heaps
live in one process and the window executes them in globally merged
``(time, priority, seq)`` order. That makes a sharded run reproduce
the sequential kernel *bit-identically by construction* — same trace
hashes, metrics, message ids, and vector clocks — while exercising the
real partition, horizon, envelope, and stall machinery. Crucially, a
mis-attributed shard tag can never corrupt a result: shard membership
only feeds the window accounting, never the dispatch order. The
multiprocess backend this was built to host is future work
(docs/SCALING.md discusses why it cannot pay for itself on a
single-core box); the window/horizon layer is the part whose
correctness is hard, and it is fully observable here via
:meth:`ShardedSimulator.shard_report`.

``SystemConfig(shards=1)`` never touches this module — the sequential
loop in :mod:`repro.sim.kernel` runs unchanged.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Event
from repro.sim.kernel import _FREELIST_MAX, SchedulePolicy, Simulator
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem

_heappush = heapq.heappush
_heappop = heapq.heappop

_INF = float("inf")

#: attributes followed (in order) when walking an entity graph towards
#: something that carries a ``shard_id`` tag. Covers the runtime's
#: reference chains: protocol process → env → app process → host → MSS,
#: deliver-thunks (``.process``), and mobile hosts (``.mss``, dynamic so
#: a handed-off MH re-homes to its new cell automatically). ``env`` is
#: tried last: RuntimeEnv and AppProcess reference each other, and the
#: ``process``-first order breaks that cycle towards the host chain.
_ENTITY_HOPS = ("process", "host", "mss", "env")

#: bound on the walk, so a reference cycle among entities cannot spin it
_MAX_HOPS = 6


class Envelope(NamedTuple):
    """A cross-shard event, as a distributed engine would ship it."""

    time: float
    priority: int
    seq: int
    src_shard: int
    dst_shard: int
    violation: bool


def resolve_entity_shard(obj: Any) -> Optional[int]:
    """Walk ``obj``'s reference chain to a ``shard_id`` tag, if any.

    Follows bound-callback owners (channels store their destination's
    delivery method in ``.deliver``) and the entity attributes in
    :data:`_ENTITY_HOPS`, at most :data:`_MAX_HOPS` links deep. Returns
    ``None`` when no tagged entity is reachable (the caller falls back
    to shard 0, the coordinator shard that owns the runner, mobility
    manager, and other global closures).
    """
    hops = 0
    while obj is not None and hops < _MAX_HOPS:
        shard = getattr(obj, "shard_id", None)
        if shard is not None:
            return shard
        bound = getattr(obj, "deliver", None)
        if bound is not None:
            obj = getattr(bound, "__self__", None)
            hops += 1
            continue
        for attr in _ENTITY_HOPS:
            nxt = getattr(obj, attr, None)
            if nxt is not None and not callable(nxt):
                obj = nxt
                break
        else:
            return None
        hops += 1
    return None


class ShardPlan:
    """Static partition of a system's cells across shards.

    Cells (MSSs) are assigned round-robin: ``mss{i}`` → shard
    ``i % n_shards``. Everything colocated with a cell — its stable
    storage, attached mobile hosts, and the processes they run — lives
    in that cell's shard; shard membership of mobile entities is
    resolved *dynamically* through the ``host → mss`` chain, so a
    handoff re-homes an MH (and its process) to the destination cell's
    shard the moment it reattaches. Global coordination objects (the
    experiment runner, mobility manager, module-level closures) belong
    to shard 0.
    """

    def __init__(
        self,
        n_shards: int,
        mss_shard: Dict[str, int],
        pid_shard: Dict[int, int],
    ) -> None:
        self.n_shards = n_shards
        self.mss_shard = mss_shard
        #: home shard of each pid at build time (reporting only; live
        #: resolution is dynamic and follows mobility)
        self.pid_shard = pid_shard

    @property
    def effective_shards(self) -> int:
        """Shards that can ever own work (bounded by the cell count)."""
        return min(self.n_shards, len(self.mss_shard)) if self.mss_shard else 1

    @classmethod
    def build(cls, system: "MobileSystem", n_shards: int) -> "ShardPlan":
        mss_shard = {
            mss.name: i % n_shards for i, mss in enumerate(system.mss_list)
        }
        pid_shard: Dict[int, int] = {}
        for pid, process in system.processes.items():
            host = process.host
            mss = getattr(host, "mss", None)
            home = mss if mss is not None else host
            pid_shard[pid] = mss_shard.get(getattr(home, "name", ""), 0)
        return cls(n_shards, mss_shard, pid_shard)

    def apply(self, system: "MobileSystem") -> None:
        """Tag the topology and register pid lookups with the kernel."""
        for mss in system.mss_list:
            mss.shard_id = self.mss_shard[mss.name]
        sim = system.sim
        if isinstance(sim, ShardedSimulator):
            sim._pid_entities = dict(system.processes)
            sim._plan = self


class ShardedSimulator(Simulator):
    """Barrier-window kernel over N per-shard heaps, merged canonically.

    Drop-in :class:`~repro.sim.kernel.Simulator` replacement built by
    :class:`~repro.core.system.MobileSystem` when
    ``SystemConfig.shards > 1``. Dispatch order is the sequential
    kernel's global ``(time, priority, seq)`` order — bit-identical
    results are structural, not emergent — while every event is
    attributed to the shard that owns its callback, windows are opened
    and closed at conservative horizons, and cross-shard traffic is
    counted as envelopes.

    Observability (kept *out* of the metrics registry so a sharded
    run's metrics snapshot stays byte-identical to its sequential
    control): :attr:`windows`, :attr:`envelopes`,
    :attr:`lookahead_violations`, per-shard event counts and stall
    time, all summarized by :meth:`shard_report`.
    """

    def __init__(
        self,
        trace: Optional[TraceLog] = None,
        policy: Optional[SchedulePolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        n_shards: int = 2,
        lookahead: float = 0.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {lookahead}")
        super().__init__(trace=trace, policy=policy, metrics=metrics)
        self._n_shards = n_shards
        self._lookahead = lookahead
        self._shard_queues: List[List[Tuple[float, int, int, Event]]] = [
            [] for _ in range(n_shards)
        ]
        self._pid_entities: Dict[int, Any] = {}
        self._plan: Optional[ShardPlan] = None
        self._current_shard = 0
        self._dispatching = False
        self._window_end = _INF
        # -- window accounting (plain attributes, never registry metrics)
        self.windows = 0
        self.envelopes = 0
        self.lookahead_violations = 0
        self.shard_events: List[int] = [0] * n_shards
        self.shard_stall_time: List[float] = [0.0] * n_shards
        #: set to a list by tests/tools to record Envelope tuples
        self.envelope_log: Optional[List[Envelope]] = None

    # -- introspection ---------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def lookahead(self) -> float:
        """The per-window horizon slack (min cross-shard link delay)."""
        return self._lookahead

    @property
    def pending_events(self) -> int:
        return sum(len(queue) for queue in self._shard_queues)

    def shard_report(self) -> Dict[str, Any]:
        """Window/envelope/stall accounting as a plain dict.

        This is the observable surface of the windowed engine: the
        equivalence tests prove shards change *nothing* in the results,
        so the sync machinery is only visible here (and in the CLI/
        service surfaces that carry it).
        """
        report: Dict[str, Any] = {
            "shards": self._n_shards,
            "lookahead": self._lookahead,
            "windows": self.windows,
            "envelopes": self.envelopes,
            "lookahead_violations": self.lookahead_violations,
            "stall_seconds": sum(self.shard_stall_time),
            "per_shard": [
                {"events": self.shard_events[i],
                 "stall_seconds": self.shard_stall_time[i]}
                for i in range(self._n_shards)
            ],
        }
        if self._plan is not None:
            report["effective_shards"] = self._plan.effective_shards
        return report

    def flush_metrics(self) -> None:
        # Same gauges as the base class (which reads ``pending_events``);
        # defined here because ``benchmarks/e2e/spans.py`` wraps this
        # name on this class to attribute a sharded run's flushes.
        super().flush_metrics()

    # -- shard resolution ------------------------------------------------
    def _resolve_shard(self, callback: Callable[..., Any], args: Tuple) -> int:
        shard = getattr(callback, "shard_id", None)
        if shard is not None:
            return shard
        owner = getattr(callback, "__self__", callback)
        if owner is not None:
            if getattr(owner, "shard_by_pid", False) and args:
                pid = args[0]
                if isinstance(pid, int):
                    entity = self._pid_entities.get(pid)
                    if entity is not None:
                        shard = resolve_entity_shard(entity)
                        if shard is not None:
                            return shard
            shard = resolve_entity_shard(owner)
            if shard is not None:
                return shard
        for arg in args[:2]:
            if arg is not None and not isinstance(arg, (int, float, str)):
                shard = resolve_entity_shard(arg)
                if shard is not None:
                    return shard
        return 0

    # -- scheduling ------------------------------------------------------
    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        stream: Optional[Hashable] = None,
    ) -> Event:
        shard = self._resolve_shard(callback, args) % self._n_shards
        event = self._push(self._shard_queues[shard], when, callback, args, stream)
        if self._dispatching and shard != self._current_shard:
            # Cross-shard schedule: in a distributed engine this is an
            # envelope shipped at the window boundary. One that lands
            # inside the currently open window is a lookahead violation
            # (the destination may already have executed past it).
            self.envelopes += 1
            violation = event.time < self._window_end
            if violation:
                self.lookahead_violations += 1
            if self.envelope_log is not None:
                self.envelope_log.append(Envelope(
                    event.time, event.priority, event.seq,
                    self._current_shard, shard, violation,
                ))
        return event

    def _heaps(self) -> List[List[Tuple[float, int, int, Event]]]:
        return self._shard_queues

    # -- dispatch --------------------------------------------------------
    def _pop_min_shard(self) -> int:
        """Index of the shard holding the global minimum live event.

        Lazily drops cancelled heads on the way; returns ``-1`` when
        every heap is drained. The merged ``(time, priority, seq)``
        comparison is exactly the sequential kernel's pop order (seq is
        globally unique, so ties never reach the Event field).
        """
        queues = self._shard_queues
        profiler = self._profiler
        best = None
        best_i = -1
        for i in range(self._n_shards):
            queue = queues[i]
            while queue:
                head = queue[0]
                if head[3]._cancelled:
                    event = _heappop(queue)[3]
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                    event.owner = None
                    if profiler is not None:
                        profiler.on_cancelled_pop()
                    continue
                if best is None or head < best:
                    best = head
                    best_i = i
                break
        return best_i

    def _dispatch(
        self, until: Optional[float], max_events: Optional[int], one: bool = False
    ) -> None:
        """The barrier-window event loop (overrides the sequential one).

        Outer loop: one iteration per window. The barrier computes the
        horizon from the global minimum; stall time is charged to every
        nonempty shard whose earliest event lies at/after the horizon
        (it would block for the whole window in a distributed engine).
        Inner loop: merged canonical dispatch of every event strictly
        below the horizon — identical order, clock, budget, ``until``,
        stop, hook, and freelist semantics to the sequential loop.
        With ``lookahead == 0`` the window degenerates to "all events at
        the minimum timestamp" (inclusive bound, so progress is still
        guaranteed). A :meth:`step` (``one=True``) is a one-event window.
        """
        queues = self._shard_queues
        n = self._n_shards
        lookahead = self._lookahead
        strict = lookahead > 0.0
        pop = _heappop
        free = self._free
        free_append = free.append
        refcount = getrefcount
        burn = self._burn
        profiler = self._profiler
        hooked = self._snap_hook is not None
        budget = (
            None if max_events is None else self._events_processed + max_events
        )
        self._dispatching = True
        try:
            while True:
                # ---- barrier: horizon + stall accounting ----
                shard = self._pop_min_shard()
                if shard < 0:
                    return
                earliest = queues[shard][0][0]
                if until is not None and earliest > until:
                    return
                cutoff = earliest + lookahead
                self.windows += 1
                self._window_end = cutoff
                if n > 1:
                    stall = self.shard_stall_time
                    for i in range(n):
                        queue = queues[i]
                        if queue and queue[0][0] >= cutoff:
                            stall[i] += cutoff - earliest
                # ---- window: merged canonical dispatch below cutoff ----
                while True:
                    shard = self._pop_min_shard()
                    if shard < 0:
                        return
                    queue = queues[shard]
                    when = queue[0][0]
                    if (when >= cutoff) if strict else (when > cutoff):
                        break  # next barrier
                    if until is not None and when > until:
                        return
                    if budget is not None and self._events_processed >= budget:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            "(runaway simulation?)"
                        )
                    event = pop(queue)[3]
                    self._now = when
                    self._events_processed += 1
                    self.shard_events[shard] += 1
                    self._current_shard = shard
                    if burn is not None:
                        burn()
                    if profiler is None:
                        event.callback(*event.args)
                    else:
                        callback = event.callback
                        started = perf_counter()
                        callback(*event.args)
                        profiler.on_event(
                            callback, perf_counter() - started,
                            self.pending_events,
                        )
                    if refcount(event) == 2 and len(free) < _FREELIST_MAX:
                        event.callback = None
                        event.args = ()
                        event.owner = None
                        free_append(event)
                    if hooked:
                        self._snap_countdown -= 1
                        if self._snap_countdown <= 0:
                            self._snap_countdown = self._snap_every
                            self._snap_hook()
                            hooked = self._snap_hook is not None
                    if one or self._stop_requested:
                        return
        finally:
            self._dispatching = False
            self._window_end = _INF

    # -- pickle support --------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = super().__getstate__()
        state["_dispatching"] = False
        state["_window_end"] = _INF
        state["envelope_log"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedSimulator shards={self._n_shards} t={self._now:.6f} "
            f"pending={self.pending_events} processed={self._events_processed} "
            f"windows={self.windows}>"
        )
