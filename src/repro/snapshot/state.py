"""Whole-graph capture and restore of a live simulation.

The payload of a snapshot is one pickled :class:`SimulationImage`: the
experiment runner and, through it, the entire object graph — kernel
(event heap, freelist, cancelled bookkeeping, seq/clock counters),
``MobileSystem`` (processes, protocol state machines, network channels
and buffers, stable storage), ``RandomStreams`` generator states, the
metrics registry, and the trace log with its counters and flight-
recorder ring. The checkpoint- and message-id counters are the system's
own, so they travel with it; an image written while checkpoint ids
came from a module global carries that counter's next value instead,
and :func:`restore` hands it to the system.

What deliberately does **not** travel:

* trace subscribers (external JSONL sinks), which their owners must
  re-subscribe;
* the kernel profiler and bench burn hook — wall-clock instrumentation;
* the per-process ``itertools.count.__next__`` fast bindings — rebuilt
  by each process's ``_reattach``;
* the kernel's snapshot hook — re-armed via the image's snapshotter,
  when one was attached.

Restoring never executes simulation code: the image comes back exactly
at the between-events point where it was captured, and
``runner.resume()`` continues from there.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.errors import SnapshotError
from repro.sim.gcpause import _paused_collector

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.runner import ExperimentRunner
    from repro.core.system import MobileSystem
    from repro.snapshot.snapshotter import Snapshotter
    from repro.workload.base import Workload


@dataclass
class SimulationImage:
    """Everything needed to continue a run, in one picklable bundle."""

    runner: "ExperimentRunner"
    snapshotter: Optional["Snapshotter"] = None

    @property
    def system(self) -> "MobileSystem":
        return self.runner.system

    @property
    def workload(self) -> "Workload":
        return self.runner.workload


def capture(
    runner: "ExperimentRunner",
    snapshotter: Optional["Snapshotter"] = None,
) -> bytes:
    """Serialize the full simulation state to bytes.

    Must be called between kernel events (the snapshot hook guarantees
    this; callers doing it by hand must not be inside an event
    callback). Capture mutates nothing — the run continues unperturbed
    whether or not the bytes are ever used.
    """
    image = SimulationImage(runner=runner, snapshotter=snapshotter)
    try:
        with _paused_collector():
            return pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(f"simulation state is not picklable: {exc!r}") from exc


class _Inert:
    """What a numpy array in a format-1 image loads as: each was a
    process's ``vc.clock``, which :func:`restore` drops unread."""

    def __init__(self, *args) -> None:
        pass

    def __setstate__(self, state) -> None:
        pass


class _ImageUnpickler(pickle.Unpickler):
    """Loads an image without numpy: the two numpy names an array is
    rebuilt from become :class:`_Inert`, and any other is refused."""

    def find_class(self, module: str, name: str):
        if (module, name) == ("repro.checkpointing.mutable", "_noop"):
            # parked on an in-flight checkpoint transfer by an image
            # written while the protocol kept its own copy of noop
            module, name = "repro.checkpointing.protocol", "noop"
        if module.split(".")[0] != "numpy":
            return super().find_class(module, name)
        if name in ("_frombuffer", "dtype"):
            return _Inert
        raise pickle.UnpicklingError(f"refusing numpy global {module}.{name}")


def restore(payload: bytes) -> SimulationImage:
    """Rebuild a live simulation from :func:`capture` output.

    Unpickles the image and re-attaches every dropped live binding:
    per-process message-id fastpaths and the snapshotter's kernel hook
    (so a resumed run keeps snapshotting with its original policy).
    """
    try:
        with _paused_collector():
            image = _ImageUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        raise SnapshotError(f"cannot unpickle snapshot payload: {exc!r}") from exc
    if not isinstance(image, SimulationImage):
        raise SnapshotError(
            f"snapshot payload is {type(image).__name__}, not SimulationImage"
        )
    system = image.system
    if not hasattr(system, "checkpoint_ids"):
        # written while checkpoint ids came from a module global
        system.checkpoint_ids = count(image.checkpoint_ids)
    for process in system.processes.values():
        if "vc" in vars(process):
            # written while processes kept a vector clock and no channel
            # counts: its later checkpoints carry none (none are invented)
            del process.vc
            process.sent = process.received = None
        process._reattach()
        process.env._reattach()
    protocol = system.protocol
    if "observers" not in vars(protocol):
        # written while the sampler, the runner and the driver subscribed
        # to the trace, and the image carried the driver: they observe
        # the protocol now, in that order
        protocol.observers = []
        if getattr(system, "timeseries", None) is not None:
            system.timeseries.install()
        protocol.observers.append(image.runner._on_wave)
        driver = vars(image).get("driver")
        if driver is not None and driver._fail_pending:
            protocol.observers.append(driver._on_wave)
    if system.shard_plan is not None:
        # only a snapshot written by the windowed sharded kernel (deleted
        # in PR 22) lacks the network handle its partition report reads
        system.sim.partition(system.shard_plan, system.network)
    if image.snapshotter is not None:
        image.snapshotter.install()
    return image
