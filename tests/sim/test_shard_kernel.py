"""Unit tests for what is left of repro.sim.shard: the cell → shard
plan, the partition report computed from the wired links' counters, and
the migration of snapshots written by the deleted windowed kernel.

That a ``shards=N`` run *is* the sequential run is structural (the class
inherits the loop; ``tests/snapshot/test_one_loop_lint.py`` keeps it
so); the integration suite still compares every observable.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import SimulationError
from repro.net.channel import FifoChannel
from repro.net.message import SystemMessage
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.shard import ShardedSimulator


# Module-level so events holding them survive a pickle round-trip.
_PICKLE_ORDER = []


def _pickle_probe(tag):
    _PICKLE_ORDER.append(tag)


def _tiny_system(n_mss, shards):
    from repro.checkpointing.mutable import MutableCheckpointProtocol
    from repro.core.config import SystemConfig
    from repro.core.system import MobileSystem

    config = SystemConfig(
        n_processes=6, n_mss=n_mss, seed=1, trace_messages=False,
        shards=shards,
    )
    return MobileSystem(config, MutableCheckpointProtocol())


# ---------------------------------------------------------------------------
# construction, and run() semantics shared with the sequential kernel


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardedSimulator(n_shards=0)
    with pytest.raises(ValueError):
        ShardedSimulator(n_shards=2, lookahead=-0.1)


def test_until_clamps_clock_and_keeps_future_events():
    sim = ShardedSimulator(n_shards=2)
    sim.schedule_at(10.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.pending_events == 1


def test_max_events_raises_and_leaves_event_queued():
    sim = ShardedSimulator(n_shards=2)

    def perpetual():
        sim.schedule_at(sim.now + 1.0, perpetual)

    sim.schedule_at(0.0, perpetual)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert sim.events_processed == 3
    assert sim.pending_events == 1  # the unaffordable event stays queued


def test_top_level_schedule_is_never_an_envelope():
    """Envelopes are messages on wired links, never kernel schedules: a
    bare kernel (no plan, no network) runs its events and reports none."""
    sim = ShardedSimulator(n_shards=2, lookahead=1.0)
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 1
    assert sim.shard_report() == {
        "shards": 2, "lookahead": 1.0, "windows": 0, "envelopes": 0,
        "lookahead_violations": 0, "stall_seconds": 0.0,
        "per_shard": [{"envelopes": 0}, {"envelopes": 0}],
    }


# ---------------------------------------------------------------------------
# pickling (snapshot/resume support)


def test_pickle_roundtrip_preserves_state_and_order():
    _PICKLE_ORDER.clear()
    sim = ShardedSimulator(n_shards=2, lookahead=0.5)
    for i, when in enumerate((1.0, 2.0, 3.0)):
        sim.schedule_at(when, _pickle_probe, (i, i % 2))
    clone = pickle.loads(pickle.dumps(sim))
    assert clone.shard_report()["shards"] == 2
    assert clone.shard_report()["lookahead"] == 0.5
    assert clone.pending_events == 3
    clone.run()
    assert _PICKLE_ORDER == [(0, 0), (1, 1), (2, 0)]
    assert clone.events_processed == 3
    # the original is untouched
    assert sim.pending_events == 3
    assert sim.events_processed == 0


def test_windowed_kernel_snapshot_resumes_into_the_one_heap():
    """A ``.rsnap`` written with ``shards >= 2`` before the windowed
    kernel was deleted pickled ``_queue == []`` and its events in
    ``_shard_queues``. Restored as-is, ``run()`` would find nothing to
    pop and the run would end early with a plausible partial result."""
    _PICKLE_ORDER.clear()
    # (time, priority, seq) as the windowed kernel would have filed them:
    # shard 1 holds the earliest event and a same-time lower-priority one
    keys = [[(2.0, 0, 0), (5.0, 0, 3), (3.0, 0, 4)],
            [(1.0, 0, 1), (2.0, -1, 2), (4.0, 0, 5)]]
    heaps, cancelled_seq = [], 3
    for shard_keys in keys:
        heap = []
        for when, priority, seq in shard_keys:
            event = Event(when, seq, _pickle_probe, (seq,), priority=priority)
            event._cancelled = seq == cancelled_seq
            heap.append((when, priority, seq, event))
        heaps.append(sorted(heap))
    state = Simulator().__getstate__()  # every key the base kernel pickles
    state.update(
        _seq=6, _cancelled_pending=1, _queue=[],
        # ... and every key the windowed ShardedSimulator added
        _n_shards=2, _lookahead=0.0005, _shard_queues=heaps,
        _pid_entities={}, _plan=None, _current_shard=1, _dispatching=False,
        _window_end=float("inf"), windows=17, envelopes=4,
        lookahead_violations=0, shard_events=[9, 8],
        shard_stall_time=[0.1, 0.2], envelope_log=None,
    )
    sim = ShardedSimulator.__new__(ShardedSimulator)
    sim.__setstate__(state)

    assert sim.pending_events == 6
    assert sim.cancelled_pending == 1
    assert vars(sim).keys() == vars(ShardedSimulator()).keys()  # dead keys gone
    sim.run()
    assert _PICKLE_ORDER == [1, 2, 0, 4, 5]  # (time, priority, seq) order
    assert sim.events_processed == 5
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0
    report = sim.shard_report()
    assert (report["shards"], report["lookahead"]) == (2, 0.0005)
    assert (report["windows"], report["envelopes"]) == (0, 0)
    # later schedules continue the restored sequence
    assert sim.schedule_at(9.0, _pickle_probe, 6).seq == 6


# ---------------------------------------------------------------------------
# ShardPlan


def test_shard_plan_round_robin():
    system = _tiny_system(n_mss=3, shards=2)
    plan = system.shard_plan
    assert plan.mss_shard == {"mss0": 0, "mss1": 1, "mss2": 0}
    assert plan.n_shards == 2
    assert plan.effective_shards == 2
    assert type(system.sim) is ShardedSimulator
    assert system.sim.shard_report()["effective_shards"] == 2


def test_more_shards_than_cells_caps_effective_shards():
    system = _tiny_system(n_mss=2, shards=4)
    plan = system.shard_plan
    assert plan.n_shards == 4
    assert plan.effective_shards == 2
    assert set(plan.mss_shard.values()) == {0, 1}
    assert system.sim.shard_report()["effective_shards"] == 2


def test_sequential_config_builds_plain_simulator():
    system = _tiny_system(n_mss=2, shards=1)
    assert type(system.sim) is Simulator
    assert system.shard_plan is None
    assert not hasattr(system.sim, "shard_report")


# ---------------------------------------------------------------------------
# the report: arithmetic over the wired links' own counters


def _send(system, src, dst, count):
    link = system.network.wired_channel(
        system.mss_list[src], system.mss_list[dst]
    )
    for _ in range(count):
        link.send(SystemMessage(src_pid=0, dst_pid=1))


def test_report_counts_sends_on_links_that_cross_the_partition():
    system = _tiny_system(n_mss=4, shards=2)
    assert system.shard_plan.mss_shard == {
        "mss0": 0, "mss1": 1, "mss2": 0, "mss3": 1,
    }
    assert system.sim.shard_report()["envelopes"] == 0  # no link built yet
    _send(system, 0, 1, 3)  # shard 0 -> 1: counts
    _send(system, 0, 2, 5)  # shard 0 -> 0: does not
    _send(system, 3, 1, 7)  # shard 1 -> 1: does not
    _send(system, 3, 2, 2)  # shard 1 -> 0: counts
    _send(system, 2, 3, 1)  # shard 0 -> 1: counts
    report = system.sim.shard_report()
    assert report["envelopes"] == 6
    assert report["per_shard"] == [{"envelopes": 2}, {"envelopes": 4}]
    assert sum(s["envelopes"] for s in report["per_shard"]) == report["envelopes"]
    assert report["lookahead"] == system.config.network.min_cross_shard_delay()
    assert report["lookahead_violations"] == 0
    assert (report["windows"], report["stall_seconds"]) == (0, 0.0)
    # computed on demand: the counters moved, so does the report
    _send(system, 0, 1, 1)
    assert system.sim.shard_report()["envelopes"] == 7


def test_link_faster_than_the_lookahead_is_reported():
    system = _tiny_system(n_mss=4, shards=2)
    lookahead = system.sim.shard_report()["lookahead"]
    params = system.network.params

    def fast_link(dst):
        return FifoChannel(
            system.sim, params.wired_bandwidth_bps, lookahead / 2,
            dst.on_wired_arrival, link_class="wired",
        )

    # hand-built in place of the links wired_channel() would create
    system.network._wired[("mss0", "mss1")] = fast_link(system.mss_list[1])
    system.network._wired[("mss0", "mss2")] = fast_link(system.mss_list[2])
    _send(system, 1, 0, 1)  # an ordinary cross-shard link beside them
    report = system.sim.shard_report()
    # one per offending cross-shard link, sent on or not; mss0 -> mss2
    # stays inside shard 0 and is nobody's lookahead
    assert report["lookahead_violations"] == 1
    assert report["envelopes"] == 1
