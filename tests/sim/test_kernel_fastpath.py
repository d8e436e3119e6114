"""Fast-path kernel internals: event pooling, cancelled-event
accounting, heap compaction, and the burn/stop hooks.

These lock in the hot-path overhaul's safety properties: cancelled
events no longer accumulate in the heap without bound (the timer
restart leak), recycled Event objects are never handed back while a
caller still holds a reference, and the instrumented loop (burn hook
attached) dispatches identically to the fast loop.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


# -- cancelled-event accounting and compaction -------------------------
def test_cancelled_pending_tracks_cancels(sim):
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert sim.cancelled_pending == 0
    for handle in handles[:4]:
        handle.cancel()
    assert sim.cancelled_pending == 4


def test_cancel_is_counted_once(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.cancelled_pending == 1


def test_popping_cancelled_events_decrements_counter(sim):
    keep = []
    for i in range(6):
        handle = sim.schedule(1.0 + i, keep.append, i)
        if i % 2 == 0:
            handle.cancel()
    sim.run_until_idle()
    assert sim.cancelled_pending == 0
    assert keep == [1, 3, 5]


def test_timer_restart_churn_is_bounded():
    """Regression for the cancelled-event leak: restarting a timer
    cancels the queued event and schedules a fresh one, so N restarts
    used to leave N dead events in the heap until their timestamps were
    reached. Compaction must keep both the dead count and the heap size
    bounded while restarts vastly outnumber live events."""
    sim = Simulator()
    pending = sim.schedule(1e9, lambda: None)
    for _ in range(5000):
        pending.cancel()
        pending = sim.schedule(1e9, lambda: None)
    assert sim.cancelled_pending < 5000  # compaction ran
    assert sim.cancelled_pending <= max(32, len(sim._queue))
    assert len(sim._queue) <= 64  # one live timer + bounded debris


def test_compaction_preserves_dispatch_order():
    """Compacting mid-churn must not reorder the surviving events."""
    sim = Simulator()
    order = []
    for i in range(200):
        sim.schedule(float(i + 1), order.append, i)
    # cancel enough to force compaction (more than half the heap)
    handles = [sim.schedule(1000.0 + i, order.append, -i) for i in range(300)]
    for handle in handles:
        handle.cancel()
    sim.run_until_idle()
    assert order == list(range(200))
    assert sim.cancelled_pending == 0


# -- freelist safety ---------------------------------------------------
def test_held_event_handle_is_not_recycled():
    """A caller that keeps the schedule() handle must be able to cancel
    it later even after many other events fired (the pool must never
    recycle an object the caller can still reach)."""
    sim = Simulator()
    fired = []
    held = sim.schedule(50.0, fired.append, "held")
    for i in range(100):
        sim.schedule(float(i) / 10.0, lambda: None)
    sim.run(until=20.0)
    held.cancel()  # still our event, not a recycled stranger
    sim.run_until_idle()
    assert fired == []


def test_freelist_reuse_keeps_order():
    """Heavy schedule/fire churn (maximum recycling) stays FIFO."""
    sim = Simulator()
    order = []

    def chain(i):
        order.append(i)
        if i < 500:
            sim.schedule(1.0, chain, i + 1)

    sim.schedule(1.0, chain, 0)
    sim.run_until_idle()
    assert order == list(range(501))


# -- burn and stop hooks ----------------------------------------------
def test_burn_hook_runs_per_event():
    sim = Simulator()
    burns = []
    sim.set_burn(lambda: burns.append(1))
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run_until_idle()
    assert len(burns) == 5
    sim.set_burn(None)
    sim.schedule(10.0, lambda: None)
    sim.run_until_idle()
    assert len(burns) == 5


def test_burn_loop_matches_fast_loop_dispatch(sim):
    order = []
    sim.set_burn(lambda: None)
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(1.0, order.append, "a2")
    sim.run_until_idle()
    assert order == ["a", "a2", "b"]


def test_stop_halts_run_from_inside_a_callback():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, seen.append, "second")
    sim.run()
    assert seen == ["first"]
    assert sim.now == 1.0
    # a later run picks up where it left off
    sim.run()
    assert seen == ["first", "second"]


def test_stop_skips_until_advance():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    sim.run(until=100.0)
    assert sim.now == 1.0


def test_max_events_guard_in_fast_loop():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)
