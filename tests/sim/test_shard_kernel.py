"""Unit tests for the barrier-window sharded kernel (repro.sim.shard).

These drive a bare :class:`ShardedSimulator` with hand-tagged callbacks
so every mechanism — shard resolution, envelope/violation counting,
stall accounting, windows, cancellation, pickling — is exercised in
isolation from the mobile-system topology (the integration suite proves
topology-level bit-identity separately).
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import SimulationError
from repro.sim.shard import ShardPlan, ShardedSimulator, resolve_entity_shard


# Module-level so events holding them survive a pickle round-trip.
_PICKLE_ORDER = []


def _pickle_probe(tag):
    _PICKLE_ORDER.append(tag)


def _tagged(fn, shard):
    fn.shard_id = shard
    return fn


# ---------------------------------------------------------------------------
# resolve_entity_shard


class _Thing:
    def __init__(self, **attrs):
        for name, value in attrs.items():
            setattr(self, name, value)


def test_resolve_walks_host_mss_chain():
    mss = _Thing(shard_id=3)
    host = _Thing(mss=mss)
    process = _Thing(host=host)
    assert resolve_entity_shard(process) == 3
    assert resolve_entity_shard(host) == 3
    assert resolve_entity_shard(mss) == 3


def test_resolve_follows_deliver_owner():
    class Sink:
        shard_id = 2

        def deliver(self):  # pragma: no cover - never called
            pass

    thunk = _Thing(deliver=Sink().deliver)
    assert resolve_entity_shard(thunk) == 2


def test_resolve_gives_up_on_untagged_cycle():
    a = _Thing()
    b = _Thing(process=a)
    a.env = b
    assert resolve_entity_shard(a) is None
    assert resolve_entity_shard(_Thing()) is None


# ---------------------------------------------------------------------------
# construction / validation


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardedSimulator(n_shards=0)
    with pytest.raises(ValueError):
        ShardedSimulator(n_shards=2, lookahead=-0.1)


def test_untagged_callbacks_land_on_coordinator_shard():
    sim = ShardedSimulator(n_shards=3)
    sim.schedule_at(1.0, lambda: None)
    assert len(sim._shard_queues[0]) == 1
    assert sim.pending_events == 1


def test_out_of_range_tag_wraps_modulo():
    sim = ShardedSimulator(n_shards=2)
    sim.schedule_at(1.0, _tagged(lambda: None, 7))
    assert len(sim._shard_queues[1]) == 1


def test_shard_by_pid_resolution():
    class Runner:
        shard_by_pid = True

        def kick(self, pid):  # pragma: no cover - never called
            pass

    sim = ShardedSimulator(n_shards=4)
    sim._pid_entities = {5: _Thing(shard_id=3)}
    sim.schedule_at(1.0, Runner().kick, 5)
    assert len(sim._shard_queues[3]) == 1


# ---------------------------------------------------------------------------
# envelopes, violations, windows, stalls


def test_cross_shard_schedule_during_dispatch_is_an_envelope():
    sim = ShardedSimulator(n_shards=2, lookahead=1.0)
    sim.envelope_log = []

    def from_shard_zero():
        # Inside the open window [0, 1): a violation.
        sim.schedule_at(0.5, _tagged(lambda: None, 1))
        # Beyond the horizon: a well-behaved envelope.
        sim.schedule_at(2.0, _tagged(lambda: None, 1))
        # Same shard: not an envelope at all.
        sim.schedule_at(0.6, _tagged(lambda: None, 0))

    sim.schedule_at(0.0, _tagged(from_shard_zero, 0))
    sim.run()
    assert sim.envelopes == 2
    assert sim.lookahead_violations == 1
    assert [(e.time, e.src_shard, e.dst_shard, e.violation)
            for e in sim.envelope_log] == [
        (0.5, 0, 1, True),
        (2.0, 0, 1, False),
    ]


def test_top_level_schedule_is_never_an_envelope():
    sim = ShardedSimulator(n_shards=2, lookahead=1.0)
    sim.schedule_at(1.0, _tagged(lambda: None, 1))
    sim.run()
    assert sim.envelopes == 0


def test_windows_and_stall_accounting():
    sim = ShardedSimulator(n_shards=2, lookahead=1.0)
    sim.schedule_at(0.0, _tagged(lambda: None, 0))
    # Head of shard 1 sits far past the first horizon: it stalls for
    # the whole window (cutoff - earliest == lookahead).
    sim.schedule_at(10.0, _tagged(lambda: None, 1))
    sim.run()
    assert sim.windows == 2
    assert sim.shard_stall_time[1] == pytest.approx(1.0)
    assert sim.shard_stall_time[0] == 0.0
    assert sim.shard_events == [1, 1]
    report = sim.shard_report()
    assert report["stall_seconds"] == pytest.approx(1.0)
    assert report["per_shard"][1]["events"] == 1
    assert report["lookahead_violations"] == 0


def test_zero_lookahead_makes_progress():
    """lookahead == 0 degenerates to one window per timestamp — the
    inclusive bound must still drain the queue rather than spin."""
    fired = []
    sim = ShardedSimulator(n_shards=2, lookahead=0.0)
    for i, when in enumerate((0.0, 0.0, 1.5, 3.0)):
        sim.schedule_at(when, _tagged(lambda i=i: fired.append(i), i % 2))
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.windows == 3  # one per distinct timestamp


def test_events_in_one_window_merge_canonically():
    fired = []
    sim = ShardedSimulator(n_shards=3, lookahead=100.0)
    # All inside one window; dispatch must interleave heaps in global
    # (time, seq) order, not shard-by-shard.
    for i, (when, shard) in enumerate(
        [(1.0, 2), (2.0, 0), (1.5, 1), (0.5, 2), (1.0, 0)]
    ):
        sim.schedule_at(when, _tagged(lambda i=i: fired.append(i), shard))
    sim.run()
    assert fired == [3, 0, 4, 2, 1]
    assert sim.windows == 1


# ---------------------------------------------------------------------------
# run() semantics shared with the sequential kernel


def test_until_clamps_clock_and_keeps_future_events():
    sim = ShardedSimulator(n_shards=2)
    sim.schedule_at(10.0, _tagged(lambda: None, 1))
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


def test_stop_requested_exits_mid_window():
    fired = []
    sim = ShardedSimulator(n_shards=2, lookahead=100.0)
    sim.schedule_at(0.0, _tagged(lambda: (fired.append(0), sim.stop()), 0))
    sim.schedule_at(1.0, _tagged(lambda: fired.append(1), 1))
    sim.run()
    assert fired == [0]
    assert sim.pending_events == 1


def test_step_attributes_event_to_its_shard():
    sim = ShardedSimulator(n_shards=2)
    sim.schedule_at(1.0, _tagged(lambda: None, 1))
    assert sim.step() is True
    assert sim.shard_events == [0, 1]
    assert sim.step() is False


def test_cancel_and_compact_across_shard_heaps():
    sim = ShardedSimulator(n_shards=2)
    keep = []
    events = [
        sim.schedule_at(float(i), _tagged(lambda i=i: keep.append(i), i % 2))
        for i in range(100)
    ]
    for event in events[:80]:
        event.cancel()
    # The >50%-dead threshold was crossed mid-cancellation, so at least
    # one compaction swept dead entries out of both heaps; stragglers
    # cancelled after the sweep are dropped lazily at pop time.
    assert 20 <= sim.pending_events < 80
    sim.run()
    assert keep == list(range(80, 100))
    assert sim.pending_events == 0
    assert sim.events_processed == 20


# ---------------------------------------------------------------------------
# pickling (snapshot/resume support)


def test_pickle_roundtrip_preserves_state_and_order():
    _PICKLE_ORDER.clear()
    sim = ShardedSimulator(n_shards=2, lookahead=0.5)
    sim.envelope_log = []
    for i, when in enumerate((1.0, 2.0, 3.0)):
        sim.schedule_at(when, _pickle_probe, (i, i % 2))
    clone = pickle.loads(pickle.dumps(sim))
    assert clone.n_shards == 2
    assert clone.lookahead == 0.5
    assert clone.pending_events == 3
    assert clone._dispatching is False
    assert clone._window_end == float("inf")
    assert clone.envelope_log is None  # observer hooks don't travel
    clone.run()
    assert _PICKLE_ORDER == [(0, 0), (1, 1), (2, 0)]
    assert clone.events_processed == 3
    # the original is untouched
    assert sim.pending_events == 3
    assert sim.events_processed == 0


# ---------------------------------------------------------------------------
# ShardPlan


def _tiny_system(n_mss, shards):
    from repro.checkpointing.mutable import MutableCheckpointProtocol
    from repro.core.config import SystemConfig
    from repro.core.system import MobileSystem

    config = SystemConfig(
        n_processes=6, n_mss=n_mss, seed=1, trace_messages=False,
        shards=shards,
    )
    return MobileSystem(config, MutableCheckpointProtocol())


def test_shard_plan_round_robin_and_tagging():
    system = _tiny_system(n_mss=3, shards=2)
    plan = system.shard_plan
    assert plan.mss_shard == {"mss0": 0, "mss1": 1, "mss2": 0}
    assert plan.effective_shards == 2
    for mss in system.mss_list:
        assert mss.shard_id == plan.mss_shard[mss.name]
    # every pid homes on its host cell's shard
    for pid, process in system.processes.items():
        assert plan.pid_shard[pid] == plan.mss_shard[process.host.mss.name]
    assert plan.n_shards == 2
    assert system.sim._plan is plan
    assert system.sim._pid_entities == dict(system.processes)


def test_more_shards_than_cells_caps_effective_shards():
    system = _tiny_system(n_mss=2, shards=4)
    plan = system.shard_plan
    assert plan.n_shards == 4
    assert plan.effective_shards == 2
    assert set(plan.mss_shard.values()) == {0, 1}
    assert system.sim.shard_report()["effective_shards"] == 2


def test_sequential_config_builds_plain_simulator():
    from repro.sim.kernel import Simulator

    system = _tiny_system(n_mss=2, shards=1)
    assert type(system.sim) is Simulator
    assert system.shard_plan is None
