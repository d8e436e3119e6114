"""Network parameter sets.

Defaults reproduce the paper's simulation model (§5.1): an IEEE 802.11
wireless LAN at 2 Mbps where a 1 KB computation message takes 4 ms, a
50 B system message takes 0.2 ms, and a 512 KB incremental checkpoint
takes 2 s to reach stable storage. The wired backbone between MSSs is
much faster and is not the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NetworkParams:
    """Physical-layer constants for the simulated mobile system.

    Attributes
    ----------
    wireless_bandwidth_bps:
        Bandwidth of each MH <-> MSS wireless channel (2 Mbps default).
    wireless_latency:
        Propagation delay on the wireless hop, seconds.
    wired_bandwidth_bps:
        Bandwidth of each MSS <-> MSS wired link.
    wired_latency:
        Propagation delay on a wired hop, seconds.
    handoff_delay:
        Time an MH's wireless link is down while moving between cells.
    mutable_save_time:
        Time to save a mutable checkpoint in MH main memory (2.5 ms in
        the paper: 1 MB over a 64-bit, 100 MHz memory bus, halved by
        incremental copying).
    stable_write_time:
        Disk time at the MSS; the paper excludes it ("disk access time is
        not counted"), hence 0 by default.
    model_contention:
        False (default) reproduces the paper's constant-delay model for
        small messages: every message takes its pure transmission time
        regardless of other traffic. True serializes all transmissions
        per link — a harsher, more physical model offered as an ablation.
    shared_cell_medium:
        True (default) models the 802.11 LAN as a shared medium for
        *bulk checkpoint transfers*: concurrent 512 KB transfers within
        one cell serialize on the cell's airtime — this is where the
        paper's "checkpointing time at most 2·16 = 32 s" comes from.
        Small messages still see constant delay (packet-level
        interleaving lets 50 B/1 KB frames preempt a bulk transfer).
        False lets every MH stream its checkpoint concurrently.
    """

    wireless_bandwidth_bps: float = 2_000_000.0
    wireless_latency: float = 0.0
    wired_bandwidth_bps: float = 100_000_000.0
    wired_latency: float = 0.0005
    handoff_delay: float = 0.05
    mutable_save_time: float = 0.0025
    stable_write_time: float = 0.0
    model_contention: bool = False
    shared_cell_medium: bool = True

    def min_cross_shard_delay(self) -> float:
        """Lower bound on any cross-cell message delay (shard lookahead).

        Every path between processes homed in different cells traverses
        a wired MSS↔MSS hop, so its arrival is at least ``wired_latency``
        after the send: transmission time adds ``size/bandwidth > 0``
        and contention (``model_contention=True``) only pushes arrivals
        *later* — neither can undercut the propagation floor. It is the
        lookahead a ``shards > 1`` run reports and checks every
        cross-shard link's :attr:`~repro.net.channel.FifoChannel.min_delay`
        against; it bounds *messages*, not the experiment driver's
        zero-delay actions (docs/SCALING.md, "Sharded kernel").
        """
        return self.wired_latency

    def __post_init__(self) -> None:
        if self.wireless_bandwidth_bps <= 0 or self.wired_bandwidth_bps <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if min(self.wireless_latency, self.wired_latency, self.handoff_delay) < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.mutable_save_time < 0 or self.stable_write_time < 0:
            raise ConfigurationError("checkpoint save times must be non-negative")
