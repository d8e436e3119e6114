"""``shards=N``: a partition report on the sequential kernel.

:class:`ShardPlan` assigns cells to shards, and :class:`ShardedSimulator`
— the :class:`~repro.sim.kernel.Simulator` loop on its one heap — reports
how much traffic the network carried across that partition, from
counters the wired links keep anyway. (The barrier-window kernel that
lived here was deleted on measurement: docs/SCALING.md, "Sharded
kernel: a post-mortem".)

``SystemConfig(shards=1)`` never imports this module. The class goes
when ``benchmarks/e2e`` (which patches two names on it) is re-cut.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem
    from repro.net.network import MobileNetwork


class ShardPlan:
    """Static partition of a system's cells: ``mss{i}`` → shard
    ``i % n_shards`` (round-robin)."""

    def __init__(self, n_shards: int, mss_shard: Dict[str, int]) -> None:
        self.n_shards = n_shards
        self.mss_shard = mss_shard

    @property
    def effective_shards(self) -> int:
        """Shards that own at least one cell (bounded by the cell count)."""
        return min(self.n_shards, len(self.mss_shard)) if self.mss_shard else 1

    @classmethod
    def build(cls, system: "MobileSystem", n_shards: int) -> "ShardPlan":
        cells = enumerate(system.mss_list)
        return cls(n_shards, {mss.name: i % n_shards for i, mss in cells})


class ShardedSimulator(Simulator):
    """The sequential kernel, plus :meth:`shard_report`.

    Built by :class:`~repro.core.system.MobileSystem` when
    ``SystemConfig.shards > 1``; ``kernel`` are :class:`Simulator`'s
    keywords. It inherits the event loop and the heap unchanged, so a
    sharded run *is* the sequential run; the report stays out of the
    metrics registry so the two metrics snapshots are byte-identical too.
    """

    def __init__(
        self, n_shards: int = 2, lookahead: float = 0.0, **kernel: Any
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {lookahead}")
        super().__init__(**kernel)
        self._n_shards = n_shards
        self._lookahead = lookahead
        self._plan: Optional[ShardPlan] = None
        self._network: Optional["MobileNetwork"] = None

    # ``benchmarks/e2e/spans.py`` patches these two names in this class's
    # own ``__dict__``; they are the inherited functions.
    schedule_at = Simulator.schedule_at
    flush_metrics = Simulator.flush_metrics

    def partition(self, plan: ShardPlan, network: "MobileNetwork") -> None:
        """The plan, and the network whose wired links the report reads."""
        self._plan = plan
        self._network = network

    def shard_report(self) -> Dict[str, Any]:
        """Cross-shard traffic so far, from the wired links' own counters.

        ``envelopes`` is the number of messages sent on backbone links
        whose two cells the plan puts in different shards (no message
        changes cell any other way), ``per_shard`` splits it by
        destination shard, and ``lookahead_violations`` counts those
        links whose :attr:`~repro.net.channel.FifoChannel.min_delay` is
        below the reported lookahead — links that could deliver sooner
        than a conservative engine would assume. ``windows`` and
        ``stall_seconds`` are constants: nothing is windowed any more,
        but ``benchmarks/e2e`` reads the keys.
        """
        into = [0] * self._n_shards
        violations = 0
        if self._network is not None:  # partitioned: there is a plan too
            shard_of = self._plan.mss_shard
            for (src, dst), link in self._network.wired_links():
                if shard_of[src] != shard_of[dst]:
                    into[shard_of[dst]] += link.messages_sent
                    if link.min_delay < self._lookahead:
                        violations += 1
        report: Dict[str, Any] = {
            "shards": self._n_shards,
            "lookahead": self._lookahead,
            "windows": 0,
            "envelopes": sum(into),
            "lookahead_violations": violations,
            "stall_seconds": 0.0,
            "per_shard": [{"envelopes": count} for count in into],
        }
        if self._plan is not None:
            report["effective_shards"] = self._plan.effective_shards
        return report

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # A snapshot written by the windowed kernel holds its events in
        # per-shard heaps and an empty ``_queue``. Entries are
        # ``(time, priority, seq, event)`` with a globally unique seq, so
        # the sorted concatenation is a valid heap with the same pop order;
        # ``Simulator.__setstate__`` then converts it, as for any image
        # with a freelist.
        shard_queues = state.get("_shard_queues")
        if shard_queues is not None:
            queue = sorted(sum(shard_queues, state["_queue"]))
            # keep what this class still has: the window state goes, and
            # the network handle that kernel never had stays None until
            # ``snapshot.state.restore`` calls :meth:`partition`
            fresh = {**vars(ShardedSimulator()), "_free": [], "_cancelled_pending": 0}
            state = {key: state.get(key, fresh[key]) for key in fresh}
            state["_queue"] = queue
        super().__setstate__(state)
