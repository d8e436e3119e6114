"""The mobile network: topology, location management, and routing.

:class:`MobileNetwork` owns every host and the wired backbone. Routing a
process-to-process message follows the paper's model:

* process on MH  -> wireless uplink to its MSS
* MSS -> (if destination elsewhere) wired FIFO link to the destination MSS
* destination MSS -> wireless downlink to the destination MH

Location management is a directory at the network layer (`pid -> host`,
`MH -> MSS`), updated synchronously at handoff; the directory abstracts
the Mobile-IP-style protocols the paper cites ([2], [26], [33]) whose
details are orthogonal to checkpointing.

Routing does not walk the directory per hop: :meth:`MobileNetwork.fill_route`
derives a pid's route once into a table that every location update
clears, so a hop costs one table lookup and one channel send.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, ItemsView, List, Optional, Tuple

from repro.errors import ConfigurationError, UnknownHostError
from repro.net.channel import FifoChannel
from repro.net.message import Message, SystemMessage
from repro.net.mh import MobileHost
from repro.net.mss import MobileSupportStation
from repro.net.node import Host
from repro.net.params import NetworkParams
from repro.sim.kernel import Simulator

#: a route table entry: the MSS where delivery finishes, and the call
#: that finishes it there
Route = Tuple[MobileSupportStation, Callable[[Message], None]]


class MobileNetwork:
    """Topology container, location directory, and router."""

    def __init__(self, sim: Simulator, params: Optional[NetworkParams] = None) -> None:
        self.sim = sim
        self.params = params if params is not None else NetworkParams()
        self.mss_list: List[MobileSupportStation] = []
        self.mh_list: List[MobileHost] = []
        self._host_of_pid: Dict[int, Host] = {}
        self._mss_of_mh: Dict[str, MobileSupportStation] = {}
        self._wired: Dict[Tuple[str, str], FifoChannel] = {}
        #: sorted pid tuple, rebuilt lazily after registration changes —
        #: broadcast fan-out must not pay an O(N log N) sort per call
        self._sorted_pids: Optional[Tuple[int, ...]] = None
        #: which MSS holds the disconnect record of a detached MH; kept
        #: by disconnect/handoff so routing to a detached MH is O(1)
        #: instead of a scan over every MSS
        self._holder_of_mh: Dict[str, MobileSupportStation] = {}
        #: the route table (see fill_route) and the backbone links by
        #: source then destination station; both fill lazily on the
        #: message path, register_process and the MH location hooks clear
        #: the table, and neither is pickled
        self._routes: Dict[int, Route] = {}
        self._links_from: Dict[
            MobileSupportStation, Dict[MobileSupportStation, FifoChannel]
        ] = {}
        #: msg_id allocator for messages the net layer itself constructs;
        #: a MobileSystem replaces this with its own counter at build time
        self.message_ids = count()
        # System-wide routing counters, published to the run's registry.
        self._c_wired_routed = sim.metrics.counter("net.wired.routed")
        self._c_wireless_sends = sim.metrics.counter("net.wireless.sends")

    # -- topology construction ------------------------------------------------
    def add_mss(self, name: Optional[str] = None) -> MobileSupportStation:
        """Create a new support station on the backbone."""
        mss = MobileSupportStation(self, name or f"mss{len(self.mss_list)}")
        self.mss_list.append(mss)
        return mss

    def add_mh(self, mss: MobileSupportStation, name: Optional[str] = None) -> MobileHost:
        """Create a new mobile host attached to ``mss``."""
        mh = MobileHost(self, name or f"mh{len(self.mh_list)}")
        self.mh_list.append(mh)
        mh.attach_to(mss)
        return mh

    # -- directory --------------------------------------------------------------
    def register_process(self, pid: int, host: Host) -> None:
        """Record (or update, after migration) where ``pid`` runs."""
        self._host_of_pid[pid] = host
        self._sorted_pids = None
        self._routes.clear()

    def host_of_process(self, pid: int) -> Host:
        """The host ``pid`` currently runs on."""
        try:
            return self._host_of_pid[pid]
        except KeyError:
            raise UnknownHostError(f"no host registered for pid {pid}") from None

    def mh_of_process(self, pid: int) -> Optional[MobileHost]:
        """The MH hosting ``pid``, or None if it runs on an MSS."""
        host = self._host_of_pid.get(pid)
        return host if isinstance(host, MobileHost) else None

    def mss_serving(self, host: Host) -> MobileSupportStation:
        """The MSS responsible for ``host`` (itself if it is an MSS)."""
        if isinstance(host, MobileSupportStation):
            return host
        assert isinstance(host, MobileHost)
        mss = self._mss_of_mh.get(host.name)
        if mss is None:
            raise UnknownHostError(f"{host.name} has no serving MSS (disconnected?)")
        return mss

    def note_mh_location(self, mh: MobileHost, mss: MobileSupportStation) -> None:
        """Directory update on attach/handoff."""
        self._mss_of_mh[mh.name] = mss
        self._routes.clear()

    def forget_mh_location(self, mh: MobileHost) -> None:
        """Directory removal on disconnect without reattachment."""
        self._mss_of_mh.pop(mh.name, None)
        self._routes.clear()

    # -- wired backbone -----------------------------------------------------------
    def wired_channel(
        self, src: MobileSupportStation, dst: MobileSupportStation
    ) -> FifoChannel:
        """The FIFO backbone link ``src -> dst`` (created lazily)."""
        if src is dst:
            raise ConfigurationError("no wired channel from an MSS to itself")
        key = (src.name, dst.name)
        channel = self._wired.get(key)
        if channel is None:
            channel = FifoChannel(
                self.sim,
                self.params.wired_bandwidth_bps,
                self.params.wired_latency,
                dst.on_wired_arrival,
                name=f"{src.name}=>{dst.name}",
                contention=self.params.model_contention,
                link_class="wired",
            )
            self._wired[key] = channel
        self._links_from.setdefault(src, {})[dst] = channel
        return channel

    def wired_links(self) -> ItemsView[Tuple[str, str], FifoChannel]:
        """Every backbone link built so far, keyed ``(src name, dst name)``."""
        return self._wired.items()

    # -- routing ---------------------------------------------------------------------
    def route_from_mss(self, mss: MobileSupportStation, message: Message) -> None:
        """Route ``message`` onward from ``mss``.

        Called when an MSS originates a message, receives one on the
        uplink, or receives one from the backbone.
        """
        station, finish = (
            self._routes.get(message.dst_pid) or self.fill_route(message.dst_pid)
        )
        if station is mss:
            finish(message)
            return
        self._c_wired_routed.value += 1
        try:
            link = self._links_from[mss][station]
        except KeyError:
            link = self.wired_channel(mss, station)
        link.send(message)

    def fill_route(self, pid: int) -> Route:
        """Derive ``pid``'s route table entry from the directory.

        The entry is the MSS where delivery finishes and the call that
        finishes it: the downlink's ``send`` for an MH in a cell,
        ``deliver_to_process`` for a process on an MSS. A disconnected MH
        has no serving MSS; its traffic is absorbed by the MSS holding
        its disconnect record, through ``deliver_local``, and that answer
        is not cached (the record, not the directory, decides it; so the
        holder hooks leave the table alone).
        """
        dst_host = self.host_of_process(pid)
        if isinstance(dst_host, MobileHost) and dst_host.name not in self._mss_of_mh:
            holder = self._find_disconnect_holder(dst_host)
            if holder is None:
                raise UnknownHostError(f"pid {pid} on {dst_host.name} is unreachable")
            return holder, holder.deliver_local
        serving = self.mss_serving(dst_host)
        if serving is dst_host:
            finish = serving.deliver_to_process
        else:
            finish = serving.downlink_to(dst_host.name).send
        route = self._routes[pid] = (serving, finish)
        return route

    def send_from_process(self, src_pid: int, message: Message) -> None:
        """Entry point used by process runtimes to send ``message``."""
        # the miss path raises UnknownHostError
        host = self._host_of_pid.get(src_pid) or self.host_of_process(src_pid)
        if isinstance(host, MobileHost):
            self._c_wireless_sends.value += 1
        host.send(message)

    def note_disconnect_holder(self, mh_name: str, mss: MobileSupportStation) -> None:
        """Index update when ``mss`` takes custody of a detached MH."""
        self._holder_of_mh[mh_name] = mss

    def forget_disconnect_holder(self, mh_name: str) -> None:
        """Index removal when the MH reattaches (record handed over)."""
        self._holder_of_mh.pop(mh_name, None)

    def _find_disconnect_holder(
        self, mh: MobileHost
    ) -> Optional[MobileSupportStation]:
        holder = self._holder_of_mh.get(mh.name)
        if holder is not None and holder.disconnect_record_for(mh.name) is not None:
            return holder
        # Fallback scan (§2.2 broadcast search) covers records written
        # without going through the index; repair the index on a hit.
        for mss in self.mss_list:
            if mss.disconnect_record_for(mh.name) is not None:
                self._holder_of_mh[mh.name] = mss
                return mss
        return None

    # -- broadcast ----------------------------------------------------------------------
    def broadcast_system(
        self,
        src_pid: int,
        make_message: Callable[[int], SystemMessage],
    ) -> int:
        """Broadcast a system message to every other process in the system.

        ``make_message(pid)`` builds the per-destination copy (broadcast
        flag set by this method). Returns the number of copies sent.
        Physically this is modelled as unicast fan-out, which upper
        layers may account as a single ``C_broad`` (see
        :mod:`repro.analysis.comparison`).
        """
        sent = 0
        for pid in self.process_ids:
            if pid == src_pid:
                continue
            message = make_message(pid)
            message.broadcast = True
            self.send_from_process(src_pid, message)
            sent += 1
        return sent

    @property
    def process_ids(self) -> Tuple[int, ...]:
        """All registered process ids, sorted (cached between changes)."""
        pids = self._sorted_pids
        if pids is None:
            pids = self._sorted_pids = tuple(sorted(self._host_of_pid))
        return pids

    # -- snapshot (pickle) support -----------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """The route table and the link index are caches of the directory
        and of ``_wired``: an image carries neither."""
        state = self.__dict__.copy()
        state.pop("_routes", None)
        state.pop("_links_from", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._routes = {}
        self._links_from = {}
