"""Tests for FIFO channels under both timing models."""

from __future__ import annotations

import pytest

from repro.net.channel import FifoChannel
from repro.net.message import ComputationMessage, SystemMessage
from repro.sim.kernel import Simulator


def make_channel(sim, arrived, contention=False, bandwidth=2_000_000.0, latency=0.0):
    return FifoChannel(
        sim, bandwidth, latency, lambda m: arrived.append((sim.now, m)), contention=contention
    )


def comp(src=0, dst=1):
    return ComputationMessage(src_pid=src, dst_pid=dst)


def sysmsg(src=0, dst=1):
    return SystemMessage(src_pid=src, dst_pid=dst)


def test_paper_delay_constants():
    """1 KB at 2 Mbps = 4 ms; 50 B = 0.2 ms (paper §5.1)."""
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived)
    assert ch.transmission_delay(comp()) == pytest.approx(0.004096)
    assert ch.transmission_delay(sysmsg()) == pytest.approx(0.0002)


def test_constant_delay_no_backlog():
    """Without contention, many messages all take their own tx time."""
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived)
    for _ in range(10):
        ch.send(sysmsg())
    sim.run_until_idle()
    times = [t for t, _ in arrived]
    assert all(t == pytest.approx(0.0002) for t in times)


def test_contention_serializes():
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived, contention=True)
    for _ in range(3):
        ch.send(sysmsg())
    sim.run_until_idle()
    times = [t for t, _ in arrived]
    assert times == pytest.approx([0.0002, 0.0004, 0.0006])


def test_fifo_preserved_with_mixed_sizes():
    """A small message sent after a big one must not overtake it."""
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived)
    big = comp()
    small = sysmsg()
    ch.send(big)
    ch.send(small)
    sim.run_until_idle()
    assert [m.msg_id for _, m in arrived] == [big.msg_id, small.msg_id]
    # the small message is clamped to the big one's arrival
    assert arrived[1][0] >= arrived[0][0]


def test_latency_added():
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived, latency=0.5)
    ch.send(sysmsg())
    sim.run_until_idle()
    assert arrived[0][0] == pytest.approx(0.5002)


def test_pause_queues_and_resume_flushes_in_order():
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived)
    ch.pause()
    a, b = sysmsg(), sysmsg()
    ch.send(a)
    ch.send(b)
    sim.run_until_idle()
    assert arrived == []
    ch.resume()
    sim.run_until_idle()
    assert [m.msg_id for _, m in arrived] == [a.msg_id, b.msg_id]


def test_drain_pending_removes_queued():
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived)
    ch.pause()
    a = sysmsg()
    ch.send(a)
    drained = ch.drain_pending()
    assert [m.msg_id for m in drained] == [a.msg_id]
    ch.resume()
    sim.run_until_idle()
    assert arrived == []


def test_counters():
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived)
    ch.send(comp())
    ch.send(sysmsg())
    assert ch.messages_sent == 2
    assert ch.bytes_sent == 1024 + 50


def test_occupy_charges_time_without_delivery():
    sim = Simulator()
    arrived = []
    ch = make_channel(sim, arrived, contention=True)
    finish = ch.occupy(comp())
    assert finish == pytest.approx(0.004096)
    sim.run_until_idle()
    assert arrived == []
    assert ch.messages_sent == 1


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoChannel(sim, 0.0, 0.0, lambda m: None)
    with pytest.raises(ValueError):
        FifoChannel(sim, 1.0, -1.0, lambda m: None)


# ---------------------------------------------------------------------------
# the per-link lookahead bound (FifoChannel.min_delay)


class _RecordingSimulator(Simulator):
    """Notes, for every channel delivery, when it was asked for and for
    when: (now, the ``when`` the channel handed over, the event's time)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.deliveries = []

    def schedule_at(self, when, callback, *args, stream=None):
        event = super().schedule_at(when, callback, *args, stream=stream)
        if stream is not None:  # channels tag their deliveries, timers do not
            self.deliveries.append((self.now, when, event.time))
        return event


@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "explore-jitter"])
@pytest.mark.parametrize("contention", [False, True], ids=["constant", "contention"])
@pytest.mark.parametrize("size", [0, 50, 1_024, 524_288])
def test_no_delivery_undercuts_min_delay(size, contention, jitter):
    """``min_delay`` is the bound a ``shards > 1`` run reports links
    against: whatever the size, the link model, a pause or a schedule
    policy do, a message sent at ``now`` arrives at ``now + min_delay``
    or later."""
    from repro.explore.policy import PerturbationConfig, RecordingPolicy

    policy = (
        RecordingPolicy(7, PerturbationConfig(p_perturb=1.0, max_jitter=0.002))
        if jitter else None
    )
    sim = _RecordingSimulator(policy=policy)
    ch = FifoChannel(
        sim, 100_000_000.0, 0.0005, lambda m: None, contention=contention
    )
    assert ch.min_delay == 0.0005

    def send():
        ch.send(ComputationMessage(src_pid=0, dst_pid=1, size_bytes=size))

    for when in (0.0, 0.0, 0.0001, 0.01):
        sim.schedule_at(when, send)
    # down at 0.02 with two sends queued behind it, back up at 0.3
    sim.schedule_at(0.02, ch.pause)
    sim.schedule_at(0.03, send)
    sim.schedule_at(0.04, send)
    sim.schedule_at(0.3, ch.resume)
    sim.schedule_at(0.3, send)
    sim.run_until_idle()

    assert len(sim.deliveries) == 7
    # the queued pair went out at the resume, not when it was sent
    assert all(now >= 0.3 for now, _, _ in sim.deliveries[4:])
    for now, handed, fires in sim.deliveries:
        assert handed >= now + ch.min_delay
        assert fires >= handed  # a policy only ever adds delay
