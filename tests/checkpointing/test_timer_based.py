"""Tests for the loosely-synchronized-clocks baseline ([10], [29]).

Every run here is a ``RunPoint`` driven by the experiment runner: a
round starts when a §5.1 initiation timer fires, like any protocol's.
"""

from __future__ import annotations

import pytest

from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.analysis.metrics import committed_stats
from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.storage import StableStorage
from repro.checkpointing.timer_based import TimerBasedProtocol
from repro.checkpointing.types import Trigger
from repro.errors import ProtocolError


def build(n=6, seed=3, rounds=3, mean=5.0, **protocol_params):
    point = RunPoint(
        protocol="timer-based",
        protocol_params=protocol_params,
        workload_params={"mean_send_interval": mean},
        system_params={"n_processes": n, "checkpoint_interval": 120.0},
        run_params={"max_initiations": rounds, "warmup_initiations": 0},
        seed=seed,
    )
    system, _, runner = build_point_runtime(point)
    return system, runner


def run(n=6, seed=3, rounds=3, mean=5.0, **protocol_params):
    system, runner = build(n, seed, rounds, mean, **protocol_params)
    commits = []
    system.protocol.add_commit_listener(commits.append)
    result = runner.run()
    return system, result, commits


def test_no_coordination_messages():
    system, _, _ = run()
    assert system.metrics.value("system_messages") == 0
    assert system.metrics.value("broadcasts") == 0


def test_all_processes_checkpoint_every_round():
    system, _, _ = run(rounds=3)
    for pid in system.processes:
        assert system.sim.trace.count("tentative", pid=pid) == 3


def test_a_round_is_one_wave_of_every_process():
    """Tentatives, permanents and commit share the initiator's trigger,
    so the per-initiation stats see all n checkpoints of a round."""
    system, result, commits = run(n=6, rounds=3)
    stats = committed_stats(system.sim.trace)
    assert [s.trigger for s in stats] == commits
    assert [s.tentative_count for s in stats] == [6, 6, 6]
    assert [s.permanent_count for s in stats] == [6, 6, 6]
    assert [s.tentative_count for s in result.initiations] == [6, 6, 6]


def test_recovery_line_consistent():
    system, _, _ = run(seed=7, rounds=3)
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)


def test_consistency_across_seeds_and_skews():
    for seed in (1, 2, 3):
        for skew in (0.1, 2.0):
            system, _, _ = run(seed=seed, rounds=2, mean=2.0, max_skew=skew)
            line = latest_permanent_line(
                system.all_stable_storages(), system.processes
            )
            assert_line_consistent(system.sim.trace, line)


def test_blocking_time_matches_the_wait_formula():
    """Every process blocks 2*max_skew + detection per round (§6)."""
    system, _, _ = run(rounds=2, max_skew=1.5, detection_time=2.5)
    expected_per_round = 2 * 1.5 + 2.5
    for process in system.processes.values():
        assert process.total_blocked_time == pytest.approx(
            2 * expected_per_round, rel=0.01
        )


def test_skews_are_bounded_and_spread():
    system, _ = build(n=8, max_skew=1.0)
    skews = [p.skew for p in system.protocol.processes.values()]
    assert all(-1.0 <= s <= 1.0 for s in skews)
    assert len(set(round(s, 6) for s in skews)) > 1


def test_initiation_arms_one_round_on_every_process():
    """Each process checkpoints when its clock reads ``now + max_skew``:
    within ``[now, now + 2 * max_skew]``, no skew clamped away."""
    system, _ = build(n=8, max_skew=1.0)
    tentatives = []
    system.protocol.observers.append(
        lambda now, kind, fields: tentatives.append((now, fields["pid"], fields["trigger"]))
        if kind == "tentative" else None
    )
    assert system.protocol.processes[3].initiate()
    system.sim.run(until=60.0)  # the waits, and eight saves over one cell
    assert sorted(pid for _, pid, _ in tentatives) == list(range(8))
    assert {trigger for _, _, trigger in tentatives} == {Trigger(3, 1)}
    for now, pid, _ in tentatives:
        assert now == pytest.approx(1.0 + system.protocol.processes[pid].skew)
    assert system.sim.trace.count("initiation", pid=3) == 1
    assert system.sim.trace.count("commit") == 1


def test_invalid_parameters_rejected():
    with pytest.raises(ProtocolError):
        TimerBasedProtocol(max_skew=-1.0)
    with pytest.raises(ProtocolError):
        TimerBasedProtocol(detection_time=-1.0)


def test_commit_reported_once_per_round():
    _, _, commits = run(rounds=3)
    assert len(commits) == 3
    assert len(set(commits)) == 3


def test_a_checkpoint_becomes_permanent_only_once_stored(monkeypatch):
    """A round's checkpoint is permanent once its process has waited and
    its data has landed: eight 512 KB saves share one cell's airtime for
    ~17 s, far longer than the 4 s wait, so the two steps come apart."""
    system, runner = build(n=8, rounds=2)
    stored_at = {}
    store = StableStorage.store

    def recording_store(self, record):
        stored_at.setdefault(record.ckpt_id, len(system.sim.trace))
        store(self, record)

    monkeypatch.setattr(StableStorage, "store", recording_store)
    runner.run()
    permanents = [
        (position, record)
        for position, record in enumerate(system.sim.trace)
        if record.kind == "permanent" and record["trigger"] is not None
    ]
    assert len(permanents) == 2 * 8
    for position, record in permanents:
        assert position >= stored_at[record["ckpt_id"]]
