"""FIFO communication channels with bandwidth and propagation delay.

A :class:`FifoChannel` models one direction of a point-to-point link.
Two timing models are supported:

* **Constant delay** (default, ``contention=False``) — the paper's §5.1
  model: every message takes exactly ``size_bytes * 8 / bandwidth_bps +
  latency`` seconds (1 KB ⇒ 4 ms, 50 B ⇒ 0.2 ms at 2 Mbps), clamped so
  arrivals never reorder (the reliable FIFO property of §2.1).
* **Contention** (``contention=True``) — transmissions serialize on the
  link: a message begins transmitting only after the previous one
  finished. Strictly FIFO as well, but bulk transfers back up the queue.

An MH that leaves a cell drops its wireless pair (messages already on
the air still arrive); traffic addressed to it while it is away is held
by the MSS that has its custody (:mod:`repro.net.mobility`,
:mod:`repro.net.disconnect`), not queued on a link.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.message import Message
from repro.obs.registry import Counter
from repro.sim.kernel import Simulator

DeliverFn = Callable[[Message], None]


class FifoChannel:
    """One direction of a reliable FIFO link.

    Parameters
    ----------
    sim:
        The simulation kernel.
    bandwidth_bps:
        Link bandwidth in bits per second.
    latency:
        Propagation delay in seconds, added after transmission.
    deliver:
        Callback invoked at the destination when a message arrives.
    name:
        Label used in traces and repr.
    link_class:
        Aggregation key for the metrics registry: traffic is added to
        the ``net.<link_class>.bytes`` / ``net.<link_class>.msgs``
        counters of ``sim.metrics`` ("wired", "wireless", ...). ``None``
        leaves the channel out of the registry (per-channel
        ``bytes_sent``/``messages_sent`` still accumulate).
    tx_delay:
        The size -> serialization time table of this bandwidth's links
        (:meth:`~repro.net.network.MobileNetwork.delay_table`); ``None``: a new one.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency: float,
        deliver: DeliverFn,
        name: str = "channel",
        contention: bool = False,
        link_class: Optional[str] = None,
        tx_delay: Optional[Dict[int, float]] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency!r}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.deliver = deliver
        self.name = name
        self.contention = contention
        self._busy_until = 0.0
        self._last_arrival = 0.0
        # Per-channel (bytes, messages) counters for energy/overhead
        # accounting (per-host granularity that the registry's link-class
        # aggregates deliberately do not carry).
        self.bytes_sent = 0
        self.messages_sent = 0
        if link_class is not None:
            self._c_bytes = sim.metrics.counter(f"net.{link_class}.bytes")
            self._c_msgs = sim.metrics.counter(f"net.{link_class}.msgs")
        else:
            # Unregistered sinks: same code path, not in any snapshot.
            self._c_bytes = Counter(f"{name}.bytes")
            self._c_msgs = Counter(f"{name}.msgs")
        # Memoized size -> serialization time; a miss fills it with the
        # float expression every link of this bandwidth would compute.
        self._tx_delay = {} if tx_delay is None else tx_delay

    @property
    def min_delay(self) -> float:
        """Per-link lookahead: a static lower bound on send→arrival time.

        Propagation latency alone — transmission time (``size > 0``),
        contention queueing and a schedule policy's jitter only
        delay arrivals further, under both the constant-delay and
        serialized link models (``tests/net/test_channel.py`` holds the
        bound). :meth:`repro.sim.shard.ShardedSimulator.shard_report`
        counts the cross-shard wired links where it is below the
        reported lookahead.
        """
        return self.latency

    def transmission_delay(self, message: Message) -> float:
        """Pure serialization time for ``message`` on this link."""
        size = message.size_bytes
        delay = self._tx_delay.get(size)
        if delay is None:
            delay = self._tx_delay[size] = size * 8.0 / self.bandwidth_bps
        return delay

    def send(self, message: Message) -> None:
        """Enqueue ``message`` for FIFO delivery."""
        now = self.sim._now
        size = message.size_bytes
        self.bytes_sent += size
        self.messages_sent += 1
        self._c_bytes.value += size
        self._c_msgs.value += 1
        delay = self._tx_delay.get(size)
        if delay is None:
            delay = self._tx_delay[size] = size * 8.0 / self.bandwidth_bps
        if self.contention:
            start = max(now, self._busy_until)
            finish = start + delay
            self._busy_until = finish
            arrival = finish + self.latency
        else:
            # Constant per-message delay, clamped to preserve FIFO order.
            arrival = now + delay + self.latency
            if arrival < self._last_arrival:
                arrival = self._last_arrival
        self._last_arrival = arrival
        # stream=self: a SchedulePolicy may jitter arrivals but the
        # kernel keeps this channel's deliveries in order (§2.1 FIFO).
        self.sim.schedule_at(arrival, self.deliver, message, stream=self)

    def occupy(self, message: Message) -> float:
        """Charge ``message``'s transmission time to the link without
        delivering it to the far end.

        Used for transfers consumed by the infrastructure itself (e.g. a
        disconnect checkpoint absorbed by the MSS). Returns the time at
        which the transmission completes.
        """
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.transmission_delay(message)
        self.bytes_sent += message.size_bytes
        self.messages_sent += 1
        self._c_bytes.inc(message.size_bytes)
        self._c_msgs.inc()
        return self._busy_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FifoChannel {self.name} busy_until={self._busy_until:.6f}>"
