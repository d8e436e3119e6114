"""Micro-benchmarks: figure scenarios, the DES kernel, and channels.

Fast checks that the figure scenarios, the kernel and a FIFO channel
still do their work in full. They assert and do not time: the kernel's
rates are gated by ``bench_kernel.py``.
"""

from __future__ import annotations

import pytest

from repro.net.channel import FifoChannel
from repro.net.message import SystemMessage
from repro.scenarios.figures import figure1, figure2_with_mutable, figure3, figure4
from repro.sim.kernel import Simulator


@pytest.mark.parametrize(
    "figure",
    [figure1, figure2_with_mutable, figure3, figure4],
    ids=["fig1", "fig2-mutable", "fig3", "fig4"],
)
def test_figure_scenarios(figure):
    """Deterministic scenario reproduction cost (and correctness)."""
    result = figure()
    expected_consistent = figure is not figure1
    assert result.consistent is expected_consistent


def test_kernel_event_throughput():
    """Events per second through the heapq scheduler."""

    def run():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run_until_idle()
        return count

    assert run() == 10_000


def test_channel_throughput():
    """Message sends through a FIFO channel."""

    def run():
        sim = Simulator()
        delivered = []
        channel = FifoChannel(sim, 2e6, 0.0, delivered.append)
        for _ in range(2_000):
            channel.send(SystemMessage(src_pid=0, dst_pid=1))
        sim.run_until_idle()
        return len(delivered)

    assert run() == 2_000


def test_end_to_end_small_simulation():
    """A complete 8-process experiment, end to end."""
    from benchmarks.bench_util import run_point_to_point
    from repro.checkpointing.mutable import MutableCheckpointProtocol

    def run():
        return run_point_to_point(
            MutableCheckpointProtocol(),
            mean_send_interval=60.0,
            n_processes=8,
            initiations=6,
        )

    result = run()
    assert result.n_initiations == 4
