"""Writers of the images of classes that have gone.

Until csn, R and MR became a ``defaultdict``, a ``set`` and a ``dict``
they were ``IntVector``, ``BitVector`` and ``MRVector`` of the deleted
``repro.checkpointing.state``, and an ``IntVector`` pickled its entries
as ``repro.analysis.vector_clock.PackedInts``. Until the deliver thunk a
mutable process queues became a ``functools.partial`` it was a
``repro.core.process._DeliverCall``. Until a disconnected host's MSS
acted through the process's own env, its protocol process held a
``repro.checkpointing.disconnect_support.MssProxyEnv``. Until the net
layer kept each location fact once, the network, its stations, hosts,
channels and custody records held the doubled directory
:func:`dumps_doubled_directory` writes. Until a mobile host kept the
bytes of the cells it left, it had no ``left_tx_bytes`` /
``left_rx_bytes`` (:func:`dumps_without_link_totals`). Until every
workload sent through numbered slots, a workload pickled its per-pid
stream tuples and ``repro.workload.base._Others`` peer views, and a group
workload's sends were ``_fire_intra`` / ``_fire_inter`` events
(:func:`dumps_per_pid_workload`). Snapshots written then must keep
loading (:class:`repro.snapshot.state._ImageUnpickler` and
:func:`repro.snapshot.state.restore`). These writers emit the opcodes
those classes emitted - byte for byte, as
``test_int_vector_images_are_pinned`` and
``test_deliver_call_image_is_pinned`` check - so a test can hand the
loader every form an old image holds.
"""

from __future__ import annotations

import contextlib
import copyreg
import io
import pickle
import struct
import sys
import types
from typing import Dict, Iterable, NamedTuple, Optional

import repro.analysis.vector_clock as vector_clock
import repro.checkpointing.disconnect_support as disconnect_support
import repro.core.process as process_module
import repro.workload.base as workload_base
from repro.net.channel import FifoChannel
from repro.net.disconnect import BufferRecord
from repro.net.mh import MobileHost
from repro.net.mss import MobileSupportStation
from repro.net.network import MobileNetwork
from repro.sim.kernel import Simulator
from repro.snapshot.state import _ImageUnpickler
from repro.workload.base import Workload, _Bindings
from repro.workload.bursty import BurstyWorkload
from repro.workload.group import GroupWorkload
from repro.workload.point_to_point import PointToPointWorkload

_STATE = "repro.checkpointing.state"


def _named(name: str):
    def stand_in(*args):  # pragma: no cover - only its name is pickled
        raise AssertionError(f"{name} is never called")

    stand_in.__module__, stand_in.__name__, stand_in.__qualname__ = _STATE, name, name
    return stand_in


IntVector, BitVector, MRVector = _named("IntVector"), _named("BitVector"), _named("MRVector")


class PackedInts(NamedTuple):
    n: int
    indices: Optional[bytes]
    data: bytes


PackedInts.__module__ = vector_clock.__name__


class _Reduce:
    def __init__(self, func, *args) -> None:
        self.func, self.args = func, args

    def __reduce__(self):
        return (self.func, self.args)


def packed(n: int, entries: Dict[int, int]) -> PackedInts:
    """What ``PackedInts.of_entries`` wrote: sparse when under half full."""
    items = sorted(item for item in entries.items() if item[1])
    if 2 * len(items) >= n:
        values = [0] * n
        for index, value in items:
            values[index] = value
        return PackedInts(n, None, struct.pack(f"<{n}q", *values))
    return PackedInts(
        n,
        struct.pack(f"<{len(items)}i", *[index for index, _ in items]),
        struct.pack(f"<{len(items)}q", *[value for _, value in items]),
    )


def int_vector(values: Iterable[int], form: str = "packed") -> _Reduce:
    """``IntVector(PackedInts)`` (format 2) or ``IntVector(list)`` (format 1)."""
    values = list(values)
    if form == "list":
        return _Reduce(IntVector, values)
    return _Reduce(IntVector, packed(len(values), dict(enumerate(values))))


def bit_vector(bits: Iterable[bool], form: str = "ones") -> _Reduce:
    """``BitVector(n, ones)`` or the one-byte-per-entry ``BitVector(bytes)``."""
    bits = [bool(b) for b in bits]
    if form == "bytes":
        return _Reduce(BitVector, bytes(bits))
    return _Reduce(BitVector, len(bits), [i for i, b in enumerate(bits) if b])


def mr_vector(n: int, entries: Dict) -> _Reduce:
    """``MRVector(n, entries)``, the MR of a request in flight."""
    return _Reduce(MRVector, n, dict(entries))


class _DeliverCall:
    """The deleted deliver thunk: ``process._deliver(message)`` when called."""

    __slots__ = ("process", "message")

    def __init__(self, process, message) -> None:
        self.process, self.message = process, message


_DeliverCall.__module__ = process_module.__name__


class MssProxyEnv(process_module.RuntimeEnv):
    """The deleted second env: the MSS ``mss`` acting for ``process``."""

    def __init__(self, process, mss) -> None:
        super().__init__(process)
        self.mss = mss


MssProxyEnv.__module__ = disconnect_support.__name__


class _Others:
    """The deleted peer view: ``_pids`` minus the entry at index ``_skip``."""

    __slots__ = ("_pids", "_skip")

    def __init__(self, pids, skip) -> None:
        self._pids, self._skip = pids, skip


_Others.__module__ = workload_base.__name__


@contextlib.contextmanager
def _old_names():
    module = types.ModuleType(_STATE)
    module.IntVector, module.BitVector, module.MRVector = IntVector, BitVector, MRVector
    saved = sys.modules.get(_STATE)
    sys.modules[_STATE] = module
    vector_clock.PackedInts = PackedInts
    process_module._DeliverCall = _DeliverCall
    disconnect_support.MssProxyEnv = MssProxyEnv
    workload_base._Others = _Others
    try:
        yield
    finally:
        del vector_clock.PackedInts, process_module._DeliverCall
        del disconnect_support.MssProxyEnv, workload_base._Others
        if saved is None:
            del sys.modules[_STATE]
        else:  # pragma: no cover
            sys.modules[_STATE] = saved


def dumps(obj, protocol: int = pickle.HIGHEST_PROTOCOL) -> bytes:
    """``obj`` pickled as it was while the wrappers existed."""
    with _old_names():
        return pickle.dumps(obj, protocol=protocol)


class _DoubledDirectoryPickler(pickle.Pickler):
    """Pickles the net layer's location facts where they were kept twice:
    each MH's cell also in ``MobileNetwork._mss_of_mh``, its downlink only
    in its MSS's ``_downlinks`` (beside ``attached_mhs``), each custody
    record in its holder's ``disconnect_records`` (indexed by
    ``_holder_of_mh``) and not naming the holder, and every channel with
    its pause queue fields."""

    def reducer_override(self, obj):
        cls = type(obj)
        if cls is MobileNetwork:
            state = obj.__getstate__()
            custody = state.pop("custody")
            state["_mss_of_mh"] = {mh.name: mh.mss for mh in obj.mh_list if mh.mss}
            state["_holder_of_mh"] = {name: r.holder for name, r in custody.items()}
        elif cls is MobileSupportStation:
            network = obj.network
            cell = [mh for mh in network.mh_list if mh.mss is obj]
            state = dict(
                vars(obj),
                attached_mhs={mh.name: mh for mh in cell},
                _downlinks={mh.name: mh.downlink for mh in cell},
                disconnect_records={
                    name: r for name, r in network.custody.items() if r.holder is obj
                },
            )
        elif cls is FifoChannel:
            state = dict(vars(obj), _paused=False, _pending_while_paused=None)
        elif cls is MobileHost or isinstance(obj, BufferRecord):
            state = _without_link_totals(obj)
            del state["downlink" if cls is MobileHost else "holder"]
        else:
            return NotImplemented
        return copyreg.__newobj__, (cls,), state


def _without_link_totals(obj) -> dict:
    state = dict(vars(obj))
    state.pop("left_tx_bytes", None)
    state.pop("left_rx_bytes", None)
    return state


class _NoLinkTotalsPickler(pickle.Pickler):
    """Pickles each mobile host without the byte totals of cells it left."""

    def reducer_override(self, obj):
        if type(obj) is MobileHost:
            return copyreg.__newobj__, (MobileHost,), _without_link_totals(obj)
        return NotImplemented


def dumps_without_link_totals(obj) -> bytes:
    """``obj`` pickled as it was before hosts kept their left cells' bytes."""
    buffer = io.BytesIO()
    _NoLinkTotalsPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def _per_pid_tables(workload: Workload) -> dict:
    """The tables a workload kept per pid before it had slots: ``_bound``
    (pid -> a tuple of its streams' C draws and its view), ``_views``
    (pid -> its view: of the shared ``_pids`` list, or for group of its
    own group, when ``_pids`` stayed empty), and p2p's ``_lambd``."""
    stream = workload.system.streams.stream
    pids = list(workload.system.processes)
    bound = _Bindings(workload._bind)
    if isinstance(workload, GroupWorkload):
        views = {pid: _Others(members, index) for members in workload.groups
                 for index, pid in enumerate(members)}
        tables = {"_bound": bound, "_pids": [], "_views": views}
    else:
        views = {pid: _Others(pids, index) for index, pid in enumerate(pids)}
        tables = {"_bound": bound, "_pids": pids, "_views": views}
    for pid in pids:
        if isinstance(workload, PointToPointWorkload):
            bound[pid] = (stream(f"workload.p2p.{pid}").random,
                          stream(f"workload.p2p.dst.{pid}").getrandbits, views[pid])
        elif isinstance(workload, BurstyWorkload):
            bound[pid] = (*(stream(f"bursty.{kind}.{pid}").random
                            for kind in ("off", "on", "send")),
                          stream(f"bursty.dst.{pid}").getrandbits, views[pid])
        else:
            group = workload.group_of[pid]
            intra = (stream(f"workload.group.intra.{pid}").random,
                     stream(f"workload.group.intra.dst.{pid}").getrandbits, views[pid])
            inter = None
            if workload.leaders[group] == pid:
                inter = (stream(f"workload.group.inter.{pid}").random,
                         stream(f"workload.group.inter.dst.{pid}").getrandbits,
                         _Others(workload.leaders, group))
            bound[pid] = (intra, inter)
    if isinstance(workload, PointToPointWorkload):
        tables["_lambd"] = 1.0 / workload.config.mean_send_interval
    return tables


class _PerPidWorkloadPickler(pickle.Pickler):
    """Pickles a workload with the per-pid tables it kept before slots,
    and a group workload's queued sends as ``_fire_intra(pid)`` /
    ``_fire_inter(leader)``."""

    def reducer_override(self, obj):
        if isinstance(obj, Workload):
            return copyreg.__newobj__, (type(obj),), dict(
                obj.__getstate__(), **_per_pid_tables(obj))
        if isinstance(obj, Simulator):
            state = obj.__getstate__()
            state["_queue"] = [_per_pid_entry(entry) for entry in state["_queue"]]
            return copyreg.__newobj__, (type(obj),), state
        return NotImplemented


def _per_pid_entry(entry):
    *head, callback, args = entry
    workload = getattr(callback, "__self__", None)
    if not isinstance(workload, GroupWorkload) or callback.__name__ != "_fire":
        return entry
    (slot,) = args
    n = len(workload.group_of)
    if slot < n:
        return (*head, _Reduce(getattr, workload, "_fire_intra"), (slot,))
    return (*head, _Reduce(getattr, workload, "_fire_inter"), (workload.leaders[slot - n],))


def dumps_per_pid_workload(obj) -> bytes:
    """``obj`` pickled as it was while workloads kept per-pid tables."""
    buffer = io.BytesIO()
    with _old_names():
        _PerPidWorkloadPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def dumps_doubled_directory(obj) -> bytes:
    """``obj`` pickled as it was while the net layer kept each location
    fact twice."""
    buffer = io.BytesIO()
    _DoubledDirectoryPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def loads(data: bytes):
    """``data`` loaded the way :func:`repro.snapshot.state.restore` loads."""
    return _ImageUnpickler(io.BytesIO(data)).load()
