"""Whole-graph capture and restore of a live simulation.

The payload of a snapshot is one pickled :class:`SimulationImage`: the
experiment runner and, through it, the entire object graph — kernel
(event heap, cancelled entries' seqs, seq/clock counters),
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
import struct
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import count
from types import SimpleNamespace
from typing import TYPE_CHECKING, BinaryIO, Dict, List, NamedTuple, Optional, Set, Union

from repro.errors import ProtocolError, SnapshotError
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
    chunks: Optional[List[bytes]] = None,
) -> Optional[bytes]:
    """Serialize the full simulation state to bytes, or append the same
    bytes to ``chunks`` one pickle frame (~64 KiB) at a time, never
    holding them whole, and return ``None``.

    Must be called between kernel events (the snapshot hook guarantees
    this; callers doing it by hand must not be inside an event
    callback). Capture mutates nothing — the run continues unperturbed
    whether or not the bytes are ever used.
    """
    image = SimulationImage(runner=runner, snapshotter=snapshotter)
    try:
        with _paused_collector():
            if chunks is None:
                return pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL)
            sink = SimpleNamespace(write=chunks.append)
            pickle.dump(image, sink, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(f"simulation state is not picklable: {exc!r}") from exc


class _Inert:
    """What a numpy array in a format-1 image loads as (each was a
    process's ``vc.clock``, which :func:`restore` drops unread), and a
    workload's old ``_Others`` peer view (its ``__setstate__`` drops it)."""

    def __init__(self, *args) -> None:
        pass

    def __setstate__(self, state) -> None:
        pass


class PackedInts(NamedTuple):
    """An int64 vector as bytes, as images written while csn vectors were
    ``IntVector`` wrappers store one.

    With ``indices`` ``None``, ``data`` is the whole vector
    (little-endian int64). Otherwise ``data`` holds the non-zero entries
    only and ``indices`` (little-endian int32) says where they go.
    """

    n: int
    indices: Optional[bytes]
    data: bytes

    def entries(self) -> Dict[int, int]:
        """The non-zero entries, index -> plain int."""
        data = struct.unpack(f"<{len(self.data) // 8}q", self.data)
        if self.indices is None:
            return {index: value for index, value in enumerate(data) if value}
        return dict(zip(struct.unpack(f"<{len(data)}i", self.indices), data))


def _int_vector(init) -> Dict[int, int]:
    """An old ``IntVector(list)`` or ``IntVector(PackedInts)``: a csn."""
    if isinstance(init, PackedInts):
        return defaultdict(int, init.entries())
    return defaultdict(int, {index: value for index, value in enumerate(init) if value})


def _bit_vector(init, ones=()) -> Set[int]:
    """An old ``BitVector(bytes)``, one 0/1 byte per entry (scanned with
    C-level ``bytes.find``), or ``BitVector(n, ones)``: an R."""
    if isinstance(init, bytes):
        ones, index = [], init.find(1)
        while index >= 0:
            ones.append(index)
            index = init.find(1, index + 1)
    return set(ones)


def _mr_vector(n: int, entries: dict) -> dict:
    """An old ``MRVector(n, entries)``: the MR of a request in flight."""
    return dict(entries)


#: the list-like wrappers of ``repro.checkpointing.state`` that csn, R
#: and MR were stored in, and what each image of one loads as
_OLD_STORES = {"IntVector": _int_vector, "BitVector": _bit_vector, "MRVector": _mr_vector}


class _DeliverCall(partial):
    """An old image's queued ``_DeliverCall(process, message)`` thunk: loads
    as ``partial(process._deliver, message)``, pickles as a partial."""

    def __new__(cls):  # made empty, given its state later: any function
        return super().__new__(cls, id)

    def __setstate__(self, state) -> None:
        slots = state[1]
        super().__setstate__((slots["process"]._deliver, (slots["message"],), None, None))

    def __reduce__(self):
        return partial, (self.func, *self.args)


class _ImageUnpickler(pickle.Unpickler):
    """Loads an image of any earlier commit, without numpy.

    Names that have gone load as what replaced them: the old csn, R and
    MR wrappers as the containers they wrapped, a ``Fraction`` weight as
    its dyadic int, the protocol's old ``_noop`` as ``noop``, a deliver
    thunk as a ``partial``, a disconnected host's ``MssProxyEnv`` as a
    ``RuntimeEnv``, a workload's ``_Others`` view as :class:`_Inert`.
    (State that moved inside a class that stayed, such as the net layer's
    location directory, is moved by :func:`restore`.) The two
    numpy names an array is rebuilt from become :class:`_Inert`, and any
    other numpy name is refused."""

    def find_class(self, module: str, name: str):
        if module == "repro.checkpointing.state":
            return _OLD_STORES[name]
        if (module, name) == ("repro.analysis.vector_clock", "PackedInts"):
            return PackedInts
        if (module, name) == ("repro.core.process", "_DeliverCall"):
            return _DeliverCall
        if (module, name) == ("repro.workload.base", "_Others"):
            return _Inert
        if (module, name) == ("repro.checkpointing.disconnect_support", "MssProxyEnv"):
            # the env a disconnected host's protocol process was given while
            # the MSS acted through a second one; restore drops it
            module, name = "repro.core.process", "RuntimeEnv"
        if (module, name) == ("repro.checkpointing.mutable", "_noop"):
            # parked on an in-flight checkpoint transfer by an image
            # written while the protocol kept its own copy of noop
            module, name = "repro.checkpointing.protocol", "noop"
        if (module, name) == ("fractions", "Fraction"):
            # a termination weight: a share 2**-k loads as its int k
            from repro.checkpointing.weights import weight_from_image

            return weight_from_image
        if module.split(".")[0] != "numpy":
            return super().find_class(module, name)
        if name in ("_frombuffer", "dtype"):
            return _Inert
        raise pickle.UnpicklingError(f"refusing numpy global {module}.{name}")


def _one_location_directory(network) -> None:
    """An image written while the net layer kept each location fact twice:
    each MH's cell also in ``network._mss_of_mh``, its downlink and
    itself in its MSS's ``_downlinks`` / ``attached_mhs``, and the record
    of an absent MH in its holder's ``disconnect_records``, indexed by
    ``network._holder_of_mh``. Each fact moves to its one place: the
    downlink onto the MH, the records into ``network.custody``."""
    state = vars(network)
    if "_mss_of_mh" not in state:
        return
    del state["_mss_of_mh"]
    state.pop("_holder_of_mh", None)
    network.custody = {}
    for mss in network.mss_list:
        old = vars(mss)
        downlinks = old.pop("_downlinks")
        for name, mh in old.pop("attached_mhs").items():
            mh.downlink = downlinks[name]
        for name, record in old.pop("disconnect_records").items():
            record.holder = mss
            network.custody[name] = record
    channels = list(state["_wired"].values())
    for mh in network.mh_list:
        vars(mh).setdefault("downlink", None)
        channels += (mh.uplink, mh.downlink)
    for channel in channels:
        if channel is not None:  # the links lost their pause queue
            vars(channel).pop("_paused", None)
            vars(channel).pop("_pending_while_paused", None)


def restore(payload: Union[bytes, BinaryIO]) -> SimulationImage:
    """Rebuild a live simulation from :func:`capture` output: its bytes,
    or a file open at them (unpickled one frame at a time).

    Unpickles the image and re-attaches every dropped live binding:
    per-process message-id fastpaths and the snapshotter's kernel hook
    (so a resumed run keeps snapshotting with its original policy).
    """
    if isinstance(payload, (bytes, bytearray)):
        payload = io.BytesIO(payload)
    try:
        with _paused_collector():
            image = _ImageUnpickler(payload).load()
    except ProtocolError:  # a weight no run of the protocol could hold
        raise
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
    _one_location_directory(system.network)
    for process in system.processes.values():
        if "vc" in vars(process):
            # written while processes kept a vector clock and no channel
            # counts: its later checkpoints carry none (none are invented)
            del process.vc
            process.sent = process.received = None
        process._reattach()
        process.env._reattach()
        # one env per process: an old image's MSS proxy env goes
        process.protocol_process.env = process.env
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
