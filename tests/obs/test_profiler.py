"""Self-tests for the kernel profiler: hooks, spans, real runs."""

from __future__ import annotations

from repro.obs.profiler import KernelProfiler, SpanStat, event_label
from repro.sim.kernel import Simulator


class _Handler:
    def on_tick(self):
        pass


def test_event_label_uses_qualname():
    assert event_label(_Handler().on_tick) == "_Handler.on_tick"


def test_event_label_collapses_lambdas_by_module():
    label = event_label(lambda: None)
    assert "<lambda>" in label
    assert label.startswith(__name__)


def test_span_stat_accumulates():
    stat = SpanStat()
    stat.add(0.5)
    stat.add(1.5)
    assert stat.count == 2
    assert stat.total_s == 2.0
    assert stat.max_s == 1.5
    assert stat.mean_s == 1.0


def test_profiler_counts_real_run():
    sim = Simulator()
    profiler = KernelProfiler()
    sim.set_profiler(profiler)
    ticks = []
    handler = _Handler()
    for t in (1.0, 2.0):
        sim.schedule_at(t, handler.on_tick)
    sim.timer(3.0, handler.on_tick)  # reported as what it runs
    cancelled = sim.timer(4.0, ticks.append, 0)
    cancelled.cancel()
    sim.run_until_idle()
    assert profiler.dispatched == 3
    assert profiler.pushes == 4
    assert profiler.cancelled_pops == 1
    assert profiler.max_queue_depth >= 3
    assert profiler.events["_Handler.on_tick"].count == 3
    assert profiler.dispatch_s > 0.0
    assert profiler.rate() > 0.0


def test_unprofiled_kernel_has_no_profiler():
    sim = Simulator()
    assert sim.profiler is None


def test_span_contextmanager_times_phases():
    profiler = KernelProfiler()
    with profiler.span("setup"):
        pass
    with profiler.span("setup"):
        pass
    assert profiler.phases["setup"].count == 2
    assert profiler.phases["setup"].total_s >= 0.0


def test_to_dict_sorted_and_table_renders():
    sim = Simulator()
    profiler = KernelProfiler()
    sim.set_profiler(profiler)
    handler = _Handler()
    sim.schedule_at(1.0, handler.on_tick)
    sim.run_until_idle()
    with profiler.span("run"):
        pass
    data = profiler.to_dict()
    assert list(data["events"]) == sorted(data["events"])
    assert data["dispatched"] == 1
    text = profiler.table()
    assert "_Handler.on_tick" in text
    assert "phase run:" in text


def test_top_events_ranked_by_total_time():
    profiler = KernelProfiler()
    fast, slow = _Handler(), _Handler()
    profiler.on_event(fast.on_tick, 0.001, depth=0)
    profiler.events["slow"] = SpanStat()
    profiler.events["slow"].add(1.0)
    ranked = profiler.top_events()
    assert ranked[0][0] == "slow"
