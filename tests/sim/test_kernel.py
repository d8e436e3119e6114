"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import ScheduleInPastError, SimulationError
from repro.sim.kernel import SchedulePolicy, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.events_processed == 0


def test_schedule_and_run_in_time_order(sim):
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fifo(sim):
    """Events at the same timestamp fire in scheduling order."""
    order = []
    for tag in range(10):
        sim.schedule(1.0, order.append, tag)
    sim.run_until_idle()
    assert order == list(range(10))


def test_zero_delay_allowed(sim):
    fired = []
    sim.schedule(0.0, fired.append, 1)
    sim.run_until_idle()
    assert fired == [1]


def test_negative_delay_rejected(sim):
    with pytest.raises(ScheduleInPastError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(ScheduleInPastError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.timer(1.0, fired.append, "x")
    handle.cancel()
    sim.run_until_idle()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent(sim):
    handle = sim.timer(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run_until_idle()


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run_until_idle()
    assert fired == ["early", "late"]


def test_run_until_processes_events_at_exact_boundary(sim):
    fired = []
    sim.schedule(5.0, fired.append, "boundary")
    sim.run(until=5.0)
    assert fired == ["boundary"]


def test_run_advances_clock_to_until_even_when_idle(sim):
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_are_processed(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, order.append, "second")

    sim.schedule(1.0, first)
    sim.run_until_idle()
    assert order == ["first", "second"]


def test_max_events_guard(sim):
    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_step_skips_cancelled(sim):
    handle = sim.timer(1.0, lambda: None)
    handle.cancel()
    assert sim.step() is False


def test_reentrant_run_rejected(sim):
    def inner():
        sim.run()

    sim.schedule(1.0, inner)
    with pytest.raises(SimulationError):
        sim.run_until_idle()


def test_events_processed_counts(sim):
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert sim.events_processed == 5


def test_determinism_across_instances():
    """Identical schedules produce identical execution orders."""

    def run_once():
        s = Simulator()
        order = []
        s.schedule(1.0, order.append, 1)
        s.schedule(1.0, order.append, 2)
        s.schedule(0.5, order.append, 3)
        s.schedule(1.5, order.append, 4)
        s.run_until_idle()
        return order

    assert run_once() == run_once() == [3, 1, 2, 4]


def test_timer_restart_and_cancel(sim):
    """A timeout is a scheduled event; rearming is cancel + schedule."""
    fired = []
    pending = sim.timer(5.0, lambda: fired.append(sim.now))
    assert not pending.cancelled
    pending.cancel()
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run_until_idle()
    assert fired == [2.0]
    assert pending.cancelled


def test_timer_cancel_prevents_firing(sim):
    fired = []
    pending = sim.timer(1.0, lambda: fired.append(1))
    pending.cancel()
    sim.run_until_idle()
    assert fired == []


# -- SchedulePolicy hook -------------------------------------------------


class _Spy(SchedulePolicy):
    """Records every consultation; identity output."""

    def __init__(self):
        self.calls = []

    def on_schedule(self, now, when, stream):
        self.calls.append((now, when, stream))
        return when, 0


def test_policy_consulted_per_schedule_call(sim):
    spy = _Spy()
    sim.set_policy(spy)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None, stream="ch")
    assert spy.calls == [(0.0, 1.0, None), (0.0, 2.0, "ch")]


def test_default_policy_is_identity(sim):
    order = []
    sim.set_policy(SchedulePolicy())
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run_until_idle()
    assert order == list(range(5))


def test_policy_priority_reorders_same_timestamp(sim):
    class Flip(SchedulePolicy):
        def __init__(self):
            self.n = 0

        def on_schedule(self, now, when, stream):
            self.n += 1
            return when, -self.n  # later calls get lower priority

    order = []
    sim.set_policy(Flip())
    for tag in range(4):
        sim.schedule(1.0, order.append, tag)
    sim.run_until_idle()
    assert order == [3, 2, 1, 0]


def test_policy_past_schedule_clamped_to_now(sim):
    class Rewind(SchedulePolicy):
        def on_schedule(self, now, when, stream):
            return when - 100.0, 0

    sim.set_policy(Rewind())
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.run_until_idle()
    assert fired == [1]
    assert sim.now == 0.0  # clamped to schedule-time now


def test_policy_cannot_reorder_a_stream(sim):
    class Jitter(SchedulePolicy):
        """Delays the first event of the stream past the second."""

        def __init__(self):
            self.n = 0

        def on_schedule(self, now, when, stream):
            self.n += 1
            if self.n == 1:
                return when + 10.0, 5
            return when, -5

    order = []
    sim.set_policy(Jitter())
    sim.schedule(1.0, order.append, "first", stream="ch")
    sim.schedule(2.0, order.append, "second", stream="ch")
    sim.run_until_idle()
    # the monotone floor pushes "second" to at least (11.0, 5)
    assert order == ["first", "second"]
    assert sim.now >= 11.0


def test_policy_streams_are_independent(sim):
    class DelayA(SchedulePolicy):
        def on_schedule(self, now, when, stream):
            if stream == "a":
                return when + 10.0, 0
            return when, 0

    order = []
    sim.set_policy(DelayA())
    sim.schedule(1.0, order.append, "a1", stream="a")
    sim.schedule(2.0, order.append, "b1", stream="b")
    sim.run_until_idle()
    assert order == ["b1", "a1"]


def test_set_policy_resets_stream_floors(sim):
    class Big(SchedulePolicy):
        def on_schedule(self, now, when, stream):
            return when + 50.0, 0

    sim.set_policy(Big())
    sim.schedule(1.0, lambda: None, stream="ch")
    sim.set_policy(SchedulePolicy())
    fired = []
    sim.schedule(1.0, fired.append, 1, stream="ch")
    sim.run(until=2.0)
    # without the reset the old (51.0, 0) floor would delay this event
    assert fired == [1]
