"""Fast-path kernel internals: cancelled-entry accounting, heap
compaction, and the burn/stop hooks.

These lock in the hot-path safety properties: cancelled timers no
longer accumulate in the heap without bound (the timer restart leak),
the cancelled count is exact whatever order cancels and firings come
in, and the instrumented loop (burn hook attached) dispatches
identically to the fast loop.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


# -- cancelled-event accounting and compaction -------------------------
def test_cancelled_pending_tracks_cancels(sim):
    handles = [sim.timer(1.0 + i, lambda: None) for i in range(10)]
    assert sim.cancelled_pending == 0
    for handle in handles[:4]:
        handle.cancel()
    assert sim.cancelled_pending == 4


def test_cancel_is_counted_once(sim):
    handle = sim.timer(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.cancelled_pending == 1


def test_cancel_after_firing_is_a_no_op(sim):
    fired = []
    early = sim.timer(1.0, fired.append, "early")
    late = sim.timer(5.0, fired.append, "late")
    sim.run(until=2.0)
    early.cancel()  # already fired: nothing is pending to cancel
    assert sim.cancelled_pending == 0
    late.cancel()
    assert sim.cancelled_pending == 1
    sim.run_until_idle()
    assert fired == ["early"]
    assert sim.cancelled_pending == 0
    assert sim.pending_events == 0


def test_popping_cancelled_events_decrements_counter(sim):
    keep = []
    for i in range(6):
        handle = sim.timer(1.0 + i, keep.append, i)
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
    pending = sim.timer(1e9, lambda: None)
    for _ in range(5000):
        pending.cancel()
        pending = sim.timer(1e9, lambda: None)
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
    handles = [sim.timer(1000.0 + i, order.append, -i) for i in range(300)]
    for handle in handles:
        handle.cancel()
    sim.run_until_idle()
    assert order == list(range(200))
    assert sim.cancelled_pending == 0


def test_compaction_mid_run_keeps_the_order_of_ties():
    """Cancels from inside a callback force compactions while the loop
    runs; the survivors, many sharing a timestamp, still fire in
    (time, seq) order."""
    sim = Simulator()
    order = []
    handles = [sim.timer(1.0 + i // 8, order.append, i) for i in range(400)]

    def cancel_most():
        for i, handle in enumerate(handles):
            if i % 3:
                handle.cancel()

    sim.schedule(0.5, cancel_most)
    sim.run_until_idle()
    assert order == [i for i in range(400) if i % 3 == 0]
    assert sim.cancelled_pending == 0


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


def test_a_timer_consults_the_policy_as_schedule_does():
    """``timer()`` goes through ``schedule_at``: under an explore jitter
    policy every third event armed as a timer draws the same ``(when,
    priority)``, in the same order, as when all are plain schedules."""
    from repro.explore.policy import PerturbationConfig, RecordingPolicy

    def dispatch(arm: str, jitter: bool = True):
        config = PerturbationConfig(p_perturb=1.0, max_jitter=0.5)
        sim = Simulator(policy=RecordingPolicy(7, config) if jitter else None)
        fired = []
        for i in range(60):
            schedule = getattr(sim, arm if i % 3 == 0 else "schedule")
            schedule(1.0 + (i % 5) * 0.1, lambda i=i: fired.append((i, sim.now)))
        sim.run_until_idle()
        return fired

    jittered = dispatch("timer")
    assert jittered == dispatch("schedule")
    assert jittered != dispatch("timer", jitter=False)  # the policy did act
