"""System builder: wires kernel, network, storage, processes, protocol.

:class:`MobileSystem` is the main entry point of the library::

    from repro import MobileSystem, SystemConfig
    from repro.checkpointing.mutable import MutableCheckpointProtocol

    system = MobileSystem(SystemConfig(n_processes=16),
                          MutableCheckpointProtocol())
    ...
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.checkpointing.protocol import CheckpointProtocol
from repro.checkpointing.storage import StableStorage
from repro.checkpointing.types import CheckpointKind, CheckpointRecord
from repro.core.config import SystemConfig
from repro.core.process import AppProcess
from repro.net.message import ComputationMessage
from repro.net.mh import MobileHost
from repro.net.mss import MobileSupportStation
from repro.net.network import MobileNetwork
from repro.obs.registry import MetricsRegistry
from repro.sim.gcpause import _paused_collector
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceLevel, TraceLog

if TYPE_CHECKING:  # pragma: no cover - loaded only when sampling is on
    from repro.obs.timeseries import TimeseriesSampler

DeliverHook = Callable[[AppProcess, ComputationMessage], None]


class MobileSystem:
    """A fully wired simulated mobile computing system.

    Construction builds the topology (``n_mss`` cells, one MH per
    process round-robin across cells), attaches the protocol to every
    process, and stores an initial permanent checkpoint (csn 0) for each
    process so a recovery line exists from time zero.
    """

    @_paused_collector()  # a build frees nothing the collector could find
    def __init__(
        self,
        config: SystemConfig,
        protocol: CheckpointProtocol,
    ) -> None:
        self.config = config
        self.protocol = protocol
        # Id spaces owned by the system: ids only need uniqueness within
        # a run, and numbering each run from 0 makes identical runs
        # bit-identical however many other systems share the interpreter.
        self.checkpoint_ids = count()
        self.message_ids = count()
        # Message-level (DEBUG) records are the bulk of trace volume; the
        # level is fixed at build time so hot-path emitters can check one
        # bool (`trace.debug_on`) instead of re-reading config. A flight
        # recorder (bounded DEBUG ring) implies DEBUG-level tracing.
        if config.trace_debug_capacity is not None:
            trace = TraceLog(
                level=TraceLevel.DEBUG,
                debug_capacity=config.trace_debug_capacity,
            )
        else:
            trace = TraceLog(
                level=TraceLevel.DEBUG if config.trace_messages else TraceLevel.INFO
            )
        if config.shards > 1:
            # The same loop on the same heap, plus a report of the
            # traffic that crossed the cell -> shard partition
            # (repro.sim.shard). The lookahead it is judged against is
            # the minimum cross-cell (wired) link delay.
            from repro.sim.shard import ShardedSimulator

            self.sim: Simulator = ShardedSimulator(
                trace=trace,
                n_shards=config.shards,
                lookahead=config.network.min_cross_shard_delay(),
            )
        else:
            self.sim = Simulator(trace=trace)
        self.streams = RandomStreams(config.seed)
        #: the run's metrics registry, shared with the kernel; every
        #: layer (net, protocol, kernel) publishes named instruments here
        self.metrics: MetricsRegistry = self.sim.metrics
        self.network = MobileNetwork(self.sim, config.network)
        # Net-layer constructors (disconnect transfers) draw from the
        # same id space so msg_ids stay globally ordered within a run.
        self.network.message_ids = self.message_ids
        self._deliver_hooks: List[DeliverHook] = []
        self._send_hooks: List[DeliverHook] = []

        self.mss_list: List[MobileSupportStation] = []
        for i in range(config.n_mss):
            mss = self.network.add_mss(f"mss{i}")
            mss.stable_storage = StableStorage(name=f"stable-{mss.name}")
            self.mss_list.append(mss)

        self.mhs: List[MobileHost] = []
        self.processes: Dict[int, AppProcess] = {}
        for pid in range(config.n_processes):
            mss = self.mss_list[pid % config.n_mss]
            if pid < config.processes_on_mss:
                # Static process: runs directly on the support station
                # (§2.1 allows both; its checkpoints skip the wireless hop).
                self.processes[pid] = AppProcess(self, pid, mss)
            else:
                mh = self.network.add_mh(mss, name=f"mh{pid}")
                self.mhs.append(mh)
                self.processes[pid] = AppProcess(self, pid, mh)

        for pid, process in self.processes.items():
            sent, received = process.capture_channels()
            initial = CheckpointRecord(
                pid=pid,
                csn=0,
                kind=CheckpointKind.PERMANENT,
                time_taken=0.0,
                ckpt_id=next(self.checkpoint_ids),
                state=process.capture_state(),
                trigger=None,
                sent=sent,
                received=received,
                size_bytes=config.checkpoint_size_bytes,
            )
            self.stable_storage_for(pid).store(initial)
            self.sim.trace.record(0.0, "permanent", pid=pid, trigger=None, ckpt_id=initial.ckpt_id)

        # Cell → shard partition (repro.sim.shard); None on sequential
        # runs, which never import the shard module.
        self.shard_plan = None
        if config.shards > 1:
            from repro.sim.shard import ShardPlan

            self.shard_plan = ShardPlan.build(self, config.shards)
            self.sim.partition(self.shard_plan, self.network)

        # Windowed telemetry sampler (repro.obs.timeseries). Built last —
        # its wave-lifecycle instruments must only exist when sampling is
        # on, so a default run's metrics snapshot is unchanged. When
        # disabled no hook is armed.
        self.timeseries: Optional[TimeseriesSampler] = None
        if config.timeseries_window is not None:
            from repro.obs.timeseries import TimeseriesSampler

            self.timeseries = TimeseriesSampler(self, config.timeseries_window)
            self.timeseries.install()

    # -- lookups ---------------------------------------------------------
    def mss_for(self, pid: int) -> MobileSupportStation:
        """The MSS currently serving ``pid``'s host (see
        :meth:`~repro.net.network.MobileNetwork.mss_serving`)."""
        host = self.network.host_of_process(pid)
        return self.network.mss_serving(host)

    def stable_storage_for(self, pid: int) -> StableStorage:
        """The stable storage where ``pid``'s checkpoints land: its serving
        MSS's, while its MH is disconnected the storage of the MSS
        holding the disconnect record (§2.2), and while it hands off
        between cells the first MSS's. An unknown ``pid`` raises
        :class:`~repro.errors.UnknownHostError`.

        With a single cell this is unambiguous; with mobility a process's
        checkpoints may be spread over several MSSs, so recovery-oriented
        callers should use :meth:`all_stable_storages` instead.
        """
        host = self.network.host_of_process(pid)
        if isinstance(host, MobileHost) and host.mss is None and not host.disconnected:
            mss = self.mss_list[0]  # between cells: no MSS serves it
        else:
            mss = self.network.mss_serving(host)
        assert mss.stable_storage is not None
        return mss.stable_storage

    def all_stable_storages(self) -> List[StableStorage]:
        """Every stable storage in the system."""
        return [mss.stable_storage for mss in self.mss_list if mss.stable_storage]

    # -- workload integration ---------------------------------------------
    def add_deliver_hook(self, hook: DeliverHook) -> None:
        """Register a callback invoked on every application delivery."""
        self._deliver_hooks.append(hook)

    def add_send_hook(self, hook: DeliverHook) -> None:
        """Register a callback invoked on every application send."""
        self._send_hooks.append(hook)

    def workload_send(self, process: AppProcess, message: ComputationMessage) -> None:
        """Called by the process runtime when the app sends a message."""
        for hook in self._send_hooks:
            hook(process, message)

    def workload_deliver(self, process: AppProcess, message: ComputationMessage) -> None:
        """Called by the process runtime when a message reaches the app."""
        for hook in self._deliver_hooks:
            hook(process, message)

    # -- convenience -------------------------------------------------------------
    def run_until_quiescent(self, max_events: Optional[int] = None) -> None:
        """Drain the event queue."""
        self.sim.run_until_idle(max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MobileSystem n={self.config.n_processes} cells={self.config.n_mss} "
            f"protocol={self.protocol.name}>"
        )
