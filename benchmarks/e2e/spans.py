"""Span tracing for the traced pass, recorded from outside the program.

The benchmark may not edit ``src/``, so layer boundaries are observed by
wrapping the *public* entry points of each layer at class (or module)
level while a traced pass runs, and unwrapping them afterwards. Wrappers
are installed before any system is built, so bound callbacks handed to
the kernel (``sim.schedule(delay, host.on_wireless_arrival, msg)``)
resolve to the wrapped function too.

Every span is ``(name, layer, start_ns, end_ns, parent, request_id)`` on
a per-thread stack. A layer's *self time* is its spans' duration minus
the part their child spans cover, so self times of all layers add up to
the wall time of the outermost spans and nothing is counted twice.

Event callbacks that are not wrapped themselves (workload timers,
protocol timers, ``FifoChannel.deliver``) are attributed through the
public :class:`~repro.obs.profiler.KernelProfiler` hook: the kernel
reports each callback and its duration to :meth:`SpanProfiler.on_event`,
which charges the callback's own time (duration minus the wrapped spans
opened inside it) to the layer of the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.profiler import KernelProfiler, event_label

#: raw spans kept per traced pass (aggregates keep counting beyond it)
RAW_SPAN_LIMIT = 50_000

#: module prefix -> layer, first match wins (most specific first)
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.shard", "sim.shard"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.export", "sim.export"),
    ("repro.sim", "sim.kernel"),
    ("repro.net", "net"),
    ("repro.workload", "workload"),
    ("repro.core.process", "core.process"),
    ("repro.checkpointing", "checkpointing"),
    ("repro.analysis.vector_clock", "clock"),
    ("repro.analysis.consistency", "analysis.consistency"),
    ("repro.explore", "explore.invariants"),
    ("repro.obs", "obs.registry"),
    ("repro.snapshot", "snapshot"),
    ("repro.campaign", "campaign"),
    ("repro.service", "service"),
    ("repro.cli", "cli"),
    ("repro.core", "core"),
    ("repro.analysis", "core"),
)

#: every layer a share is reported for; time in code from modules outside
#: the table above is reported as ``unattributed``
LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.shard", "net", "workload", "core.process", "core",
    "checkpointing", "clock", "sim.trace", "obs.registry", "sim.export",
    "explore.invariants", "analysis.consistency", "snapshot", "campaign",
    "service", "cli",
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer that owns code defined in ``module``."""
    if module:
        for prefix, layer in _LAYER_PREFIXES:
            if module.startswith(prefix):
                return layer
    return "unattributed"


#: (module, owner class or None for a module attribute, attribute, layer)
_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim.kernel"),
    ("repro.sim.kernel", "Simulator", "schedule_at", "sim.kernel"),
    ("repro.sim.kernel", "Simulator", "flush_metrics", "obs.registry"),
    ("repro.sim.shard", "ShardedSimulator", "schedule_at", "sim.shard"),
    ("repro.sim.shard", "ShardedSimulator", "flush_metrics", "obs.registry"),
    ("repro.obs.registry", "MetricsRegistry", "snapshot", "obs.registry"),
    ("repro.net.network", "MobileNetwork", "send_from_process", "net"),
    ("repro.net.network", "MobileNetwork", "route_from_mss", "net"),
    ("repro.net.network", "MobileNetwork", "broadcast_system", "net"),
    ("repro.net.channel", "FifoChannel", "send", "net"),
    ("repro.net.mh", "MobileHost", "on_downlink_arrival", "net"),
    ("repro.net.mss", "MobileSupportStation", "on_wireless_arrival", "net"),
    ("repro.net.mss", "MobileSupportStation", "on_wired_arrival", "net"),
    ("repro.core.process", "AppProcess", "send_computation", "core.process"),
    ("repro.core.process", "AppProcess", "on_message", "core.process"),
    ("repro.core.process", "RuntimeEnv", "send_system", "core.process"),
    ("repro.core.process", "RuntimeEnv", "broadcast_system", "core.process"),
    ("repro.core.process", "RuntimeEnv", "transfer_to_stable", "core.process"),
    ("repro.core.process", "RuntimeEnv", "save_mutable", "core.process"),
    ("repro.core.system", "MobileSystem", "workload_send", "workload"),
    ("repro.core.system", "MobileSystem", "workload_deliver", "workload"),
    ("repro.core.runner", "ExperimentRunner", "run", "core"),
    ("repro.core.runner", "ExperimentRunner", "resume", "core"),
    ("repro.core.results", "RunResult", "to_dict", "core"),
    ("repro.core.results", "RunResult", "from_dict", "core"),
    ("repro.analysis.vector_clock", "VectorClock", "stamp_for", "clock"),
    ("repro.analysis.vector_clock", "VectorClock", "merge_stamp", "clock"),
    ("repro.analysis.vector_clock", "VectorClock", "merge", "clock"),
    ("repro.analysis.vector_clock", "VectorClock", "merge_delta", "clock"),
    ("repro.analysis.vector_clock", "VectorClock", "snapshot", "clock"),
    ("repro.sim.trace", "TraceLog", "record", "sim.trace"),
    ("repro.sim.trace", "TraceLog", "debug", "sim.trace"),
    ("repro.sim.trace", "TraceLog", "content_hash", "sim.trace"),
    # Snapshotter.take/resume_run call these through the names imported
    # into repro.snapshot.snapshotter, so that is where they are wrapped.
    ("repro.snapshot.snapshotter", None, "capture", "snapshot.state"),
    ("repro.snapshot.snapshotter", None, "restore", "snapshot.state"),
    ("repro.snapshot.snapshotter", None, "write_snapshot", "snapshot.format"),
    ("repro.snapshot.snapshotter", None, "read_snapshot", "snapshot.format"),
    ("repro.campaign.engine", "CampaignEngine", "run", "campaign"),
    ("repro.campaign.store", "ResultStore", "append", "campaign"),
    ("repro.service.db", "ResultDB", "append", "service"),
    ("repro.service.db", "ResultDB", "get", "service"),
    ("repro.service.cache", "ResultCache", "partition", "service"),
    ("repro.service.jobs", "JobManager", "submit", "service"),
    ("repro.service.jobs", "JobManager", "report", "service"),
    ("repro.service.server", "CampaignRequestHandler", "do_GET", "service"),
    ("repro.service.server", "CampaignRequestHandler", "do_POST", "service"),
)

#: ProtocolProcess hooks, wrapped on every concrete subclass defining them
_PROTOCOL_HOOKS = (
    "on_send_computation", "on_receive_computation", "on_system_message",
    "initiate",
)

# snapshot.state / snapshot.format are reported as their own metrics but
# share one "snapshot" layer in the share table.
_SHARE_LAYER = {"snapshot.state": "snapshot", "snapshot.format": "snapshot"}


class _Frame:
    __slots__ = ("name", "layer", "start", "child_ns", "seen_ns", "span_id")

    def __init__(self, name: str, layer: str, start: int, span_id: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.child_ns = 0  # time covered by child spans so far
        self.seen_ns = 0   # child_ns at the last event_done (kernel frames)
        self.span_id = span_id


class _ThreadState(threading.local):
    """Per-thread span stack and aggregates (the service runs threads)."""

    def __init__(self, tracer: "Tracer") -> None:
        self.stack: List[_Frame] = []
        #: (layer, name) -> [calls, self_ns, total_ns]
        self.stats: Dict[Tuple[str, str], List[int]] = {}
        with tracer._lock:
            tracer._thread_stats.append(self.stats)


class SpanProfiler(KernelProfiler):
    """KernelProfiler that feeds event callbacks into a :class:`Tracer`."""

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self._tracer = tracer

    def on_event(self, callback: Callable[..., Any], seconds: float, depth: int) -> None:
        self.dispatched += 1
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self._tracer.event_done(callback, int(seconds * 1e9))


class Tracer:
    """Collects spans and per-(layer, function) self-time aggregates."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._thread_stats: List[Dict[Tuple[str, str], List[int]]] = []
        self._local = _ThreadState(self)
        #: aggregates of the thread that owns the tracer (the benchmark's
        #: main thread); only these partition the stage wall time
        self.main_stats = self._local.stats
        #: spans are recorded only while the main thread has a stage open
        self.recording = False
        self._ids = itertools.count()
        #: (id, name, layer, start_ns, end_ns, parent id, request id)
        self.raw: List[Tuple[int, str, str, int, int, int, str]] = []
        self.counts: Dict[str, int] = {}
        self.profilers: List[SpanProfiler] = []
        self.events = 0
        self.request_id = ""
        self._callback_layers: Dict[Any, Tuple[str, str]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    @staticmethod
    def _add(stats: Dict[Tuple[str, str], List[int]], layer: str, name: str,
             self_ns: int, total_ns: int) -> None:
        stat = stats.get((layer, name))
        if stat is None:
            stat = stats[(layer, name)] = [0, 0, 0]
        stat[0] += 1
        stat[1] += self_ns
        stat[2] += total_ns

    def _push(self, name: str, layer: str) -> _Frame:
        frame = _Frame(name, layer, perf_counter_ns(), next(self._ids))
        self._local.stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = perf_counter_ns()
        local = self._local
        stack = local.stack
        stack.pop()
        total = end - frame.start
        self._add(local.stats, frame.layer, frame.name, total - frame.child_ns, total)
        parent = -1
        if stack:
            stack[-1].child_ns += total
            parent = stack[-1].span_id
        if len(self.raw) < RAW_SPAN_LIMIT:
            self.raw.append((frame.span_id, frame.name, frame.layer,
                             frame.start, end, parent, self.request_id))

    @contextmanager
    def stage(self, name: str, layer: str, request_id: Optional[str] = None) -> Iterator[None]:
        """A top-level span opened by the benchmark around one operation.

        ``layer`` is the layer of the function the operation calls, so
        whatever that function does outside wrapped callees is charged
        to it. Recording is on only inside stages, which keeps the
        benchmark's own checks (digests, re-hashing) out of the table.
        """
        if request_id is not None:
            self.request_id = request_id
        self.recording = True
        frame = self._push(name, layer)
        try:
            yield
        finally:
            self._pop(frame)
            self.recording = False

    def event_done(self, callback: Callable[..., Any], total_ns: int) -> None:
        """One kernel event finished; its enclosing frame is on top."""
        local = self._local
        if not self.recording or not local.stack:
            return
        self.events += 1
        frame = local.stack[-1]
        # Child spans opened during this callback added themselves to the
        # enclosing frame; what is left of the callback's duration is the
        # callback's own time. (The callback's span is made after the
        # fact, so spans opened inside it name the enclosing frame as
        # their parent in the raw trace.)
        inside = frame.child_ns - frame.seen_ns
        # One entry per piece of code, not per bound instance or closure.
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", None) or type(func)
        known = self._callback_layers.get(key)
        if known is None:
            known = self._callback_layers[key] = (
                layer_of_module(getattr(callback, "__module__", None)),
                event_label(callback),
            )
        self._add(local.stats, known[0], known[1], max(total_ns - inside, 0), total_ns)
        frame.child_ns = frame.seen_ns = frame.seen_ns + max(total_ns, inside)
        if len(self.raw) < RAW_SPAN_LIMIT:
            end = perf_counter_ns()
            self.raw.append(
                (next(self._ids), known[1], known[0], end - total_ns, end,
                 frame.span_id, f"{self.request_id}#ev{self.events}")
            )

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def new_profiler(self) -> SpanProfiler:
        profiler = SpanProfiler(self)
        self.profilers.append(profiler)
        return profiler

    # -- wrapping --------------------------------------------------------
    def _wrap(self, func: Callable[..., Any], name: str, layer: str,
              dynamic_layer: Optional[Callable[[Any], str]] = None,
              on_return: Optional[Callable[[Any], None]] = None) -> Callable[..., Any]:
        push, pop = self._push, self._pop
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return func(*args, **kwargs)
            frame = push(name, dynamic_layer(args[0]) if dynamic_layer else layer)
            try:
                result = func(*args, **kwargs)
            finally:
                pop(frame)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, layer: str, **options: Any) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, name, layer, **options))
        else:
            wrapped = self._wrap(raw, name, layer, **options)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point; undo with :meth:`uninstall`."""
        from repro.analysis.vector_clock import VCDelta
        from repro.checkpointing.protocol import ProtocolProcess
        import repro.core.registry  # noqa: F401 - imports every protocol class
        from repro.core.system import MobileSystem
        from repro.sim.shard import ShardedSimulator

        def kernel_layer(sim: Any) -> str:
            return "sim.shard" if isinstance(sim, ShardedSimulator) else "sim.kernel"

        def count_stamp(stamp: Any) -> None:
            self.count("clock.stamps")
            if not isinstance(stamp, VCDelta):
                self.count("clock.full_stamps")

        for module_name, owner_name, attr, layer in _TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            options: Dict[str, Any] = {}
            if (owner_name, attr) == ("Simulator", "run"):
                options["dynamic_layer"] = kernel_layer
            elif (owner_name, attr) == ("VectorClock", "stamp_for"):
                options["on_return"] = count_stamp
            self._patch(owner, attr, layer, **options)

        seen = set()
        pending = list(ProtocolProcess.__subclasses__())
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for hook in _PROTOCOL_HOOKS:
                if hook in cls.__dict__:
                    self._patch(cls, hook, "checkpointing")

        # Every system built while tracing gets a profiler, including the
        # ones the campaign engine and the service build in this process.
        init = MobileSystem.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def traced_init(system: Any, *args: Any, **kwargs: Any) -> None:
            init(system, *args, **kwargs)
            system.sim.set_profiler(tracer.new_profiler())

        self._undo.append((MobileSystem, "__init__", init))
        MobileSystem.__init__ = traced_init  # type: ignore[method-assign]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reporting -------------------------------------------------------
    @property
    def stats(self) -> Dict[Tuple[str, str], List[int]]:
        """Aggregates of every thread, merged."""
        merged: Dict[Tuple[str, str], List[int]] = {}
        for stats in list(self._thread_stats):
            for key, values in list(stats.items()):
                into = merged.setdefault(key, [0, 0, 0])
                for i in range(3):
                    into[i] += values[i]
        return merged

    def layer_self_ns(self) -> Dict[str, int]:
        """Main-thread self time per share-table layer.

        Main-thread self times partition the stage wall time exactly;
        other threads (the service's) overlap it and are listed in
        ``layers.json`` only.
        """
        out: Dict[str, int] = {}
        for (layer, _), (_, self_ns, _) in list(self.main_stats.items()):
            layer = _SHARE_LAYER.get(layer, layer)
            out[layer] = out.get(layer, 0) + self_ns
        return out

    def heap_stats(self) -> Dict[str, float]:
        pushes = sum(p.pushes for p in self.profilers)
        cancelled = sum(p.cancelled_pops for p in self.profilers)
        dispatched = sum(p.dispatched for p in self.profilers)
        pops = dispatched + cancelled
        return {
            "heap_pushes": float(pushes),
            "cancelled_pop_ratio": cancelled / pops if pops else 0.0,
            "heap_depth_max": float(
                max((p.max_queue_depth for p in self.profilers), default=0)
            ),
        }

    def write(self, out_dir: str, layers_doc: Dict[str, Any]) -> None:
        """Dump ``trace.jsonl`` (raw spans) and ``layers.json``."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trace.jsonl"), "w", encoding="utf-8") as fh:
            for span_id, name, layer, start, end, parent, request in list(self.raw):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer, "start_ns": start,
                    "end_ns": end, "parent": parent, "request_id": request,
                }) + "\n")
        functions = [
            {"layer": layer, "function": name, "calls": calls,
             "self_ms": self_ns / 1e6, "total_ms": total_ns / 1e6}
            for (layer, name), (calls, self_ns, total_ns) in sorted(
                self.stats.items(), key=lambda kv: -kv[1][1]
            )
        ]
        with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump({**layers_doc, "functions": functions}, fh, indent=1, sort_keys=True)


class NullTracer:
    """Stand-in for untraced passes: a stage costs one no-op context manager."""

    @contextmanager
    def stage(self, name: str, layer: str, request_id: Optional[str] = None) -> Iterator[None]:
        yield
