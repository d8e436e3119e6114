"""``shards=N`` equivalence matrix (PR-10 acceptance, kept as a fence).

``SystemConfig(shards=N)`` must be *observably invisible*: same trace
content hash, same metrics snapshot, same wall-event count and final
sim time, and same final per-process channel counts as the sequential
``shards=1`` kernel — for the PR-5 golden configs (pinned byte-exact in
``test_fastpath_determinism.GOLDEN``) and for a multi-cell 256-process
case where the partition is real (cross-shard envelopes flow into every
shard). Since the windowed execution mode was deleted the sharded
kernel *is* the sequential loop, so these hold by construction; the
partition may only show up in ``RunResult.shard_stats``, whose counts
are pinned at the bottom.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign import RunPoint, build_point_runtime
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.results import RunResult
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload

from tests.integration.test_fastpath_determinism import GOLDEN


def _run(
    n_processes: int,
    seed: int,
    trace_messages: bool,
    max_initiations: int,
    *,
    n_mss: int = 1,
    shards: int = 1,
    mean_send_interval: float = 15.0,
):
    config = SystemConfig(
        n_processes=n_processes,
        n_mss=n_mss,
        seed=seed,
        trace_messages=trace_messages,
        shards=shards,
    )
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=mean_send_interval)
    )
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=max_initiations, warmup_initiations=1),
    )
    result = runner.run(max_events=10_000_000)
    return system, result


def _signature(system, result):
    """Everything shards must not change, in one comparable tuple."""
    return (
        system.sim.trace.content_hash(),
        hashlib.sha256(
            json.dumps(result.metrics, sort_keys=True).encode()
        ).hexdigest(),
        result.wall_events,
        result.sim_time,
        {pid: p.capture_channels() for pid, p in system.processes.items()},
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_golden_a_bit_identical_under_shards(shards):
    """Config A (8p, DEBUG trace) with ``shards=N`` still lands on the
    pre-overhaul golden values byte for byte."""
    system, result = _run(8, 20260806, True, 4, shards=shards)
    golden = GOLDEN["A"]
    assert system.sim.trace.content_hash() == golden["trace_hash"]
    assert result.wall_events == golden["wall_events"]
    assert result.sim_time == golden["sim_time"]
    metrics_sha = hashlib.sha256(
        json.dumps(result.metrics, sort_keys=True).encode()
    ).hexdigest()
    assert metrics_sha == golden["metrics_sha256"]
    # Single-cell topology: the partition is degenerate (no wired link,
    # so nothing can cross it) but the report is still there.
    assert result.shard_stats["shards"] == shards
    assert result.shard_stats["envelopes"] == 0


@pytest.mark.parametrize("shards", [2, 4])
def test_golden_b_bit_identical_under_shards(shards):
    """Config B (16p, trace off), end to end."""
    system, result = _run(16, 7, False, 6, shards=shards)
    golden = GOLDEN["B"]
    assert system.sim.trace.content_hash() == golden["trace_hash"]
    assert result.wall_events == golden["wall_events"]
    assert result.sim_time == golden["sim_time"]


@pytest.mark.parametrize("shards", [2, 4])
def test_256p_multicell_bit_identical_under_shards(shards):
    """256 processes over 8 cells: a real partition (envelopes into
    every shard) changes no observable."""
    control_system, control_result = _run(
        256, 11, False, 3, n_mss=8, mean_send_interval=10.0
    )
    system, result = _run(
        256, 11, False, 3, n_mss=8, shards=shards, mean_send_interval=10.0
    )
    assert _signature(system, result) == _signature(
        control_system, control_result
    )
    stats = result.shard_stats
    assert stats["shards"] == stats["effective_shards"] == shards
    assert stats["envelopes"] > 0
    # Every shard received cross-shard traffic.
    assert all(s["envelopes"] > 0 for s in stats["per_shard"])
    assert sum(s["envelopes"] for s in stats["per_shard"]) == stats["envelopes"]
    # The min-wired-delay lookahead is sound for this network: no
    # cross-shard link can deliver sooner.
    assert stats["lookahead_violations"] == 0
    assert control_result.shard_stats == {}


def test_sharded_runs_are_self_identical():
    """Two fresh sharded systems, same seed: identical signatures and
    identical partition reports."""
    a_system, a_result = _run(32, 3, True, 3, n_mss=4, shards=4)
    b_system, b_result = _run(32, 3, True, 3, n_mss=4, shards=4)
    assert _signature(a_system, a_result) == _signature(b_system, b_result)
    assert a_result.shard_stats == b_result.shard_stats


def test_shard_stats_roundtrip_and_sequential_docs_unchanged():
    """shard_stats survives the RunResult wire format; sequential
    result documents do not even carry the key."""
    _, sharded = _run(8, 20260806, True, 2, n_mss=2, shards=2)
    _, sequential = _run(8, 20260806, True, 2, n_mss=2)
    doc = sharded.to_dict()
    assert doc["shard_stats"]["shards"] == 2
    assert RunResult.from_dict(doc).shard_stats == sharded.shard_stats
    assert "shard_stats" not in sequential.to_dict()


def _cli_shaped_stats(n_processes, n_mss, shards, seed, interval, initiations):
    """``shard_stats`` of the run ``repro-sim run --protocol mutable
    --processes .. --cells .. --shards .. --seed .. --rate 1/interval
    --initiations ..`` describes."""
    _, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": interval},
        system_params={"n_processes": n_processes, "n_mss": n_mss,
                       "checkpoint_interval": 900.0, "shards": shards},
        run_params={"max_initiations": initiations}, seed=seed,
        max_events=None,
    ))
    return runner.run().shard_stats


def test_envelope_counts_pinned_against_the_windowed_kernel():
    """Counts recorded at 68a371c, the last commit with the windowed
    kernel, from its per-event audit and from the wired links' counters.

    On the 2-shard config the two agreed exactly. On the CI ``shard-smoke``
    config (256p / 8 cells / 4 shards) the audit read 435 and the links
    433. The two extra were the experiment driver acting across shards
    inside one event, not messages: an ``_initiation_due`` timer armed
    at a commit for a process of another shard, and the uplink send of a
    deferred initiator that ``ExperimentRunner._on_commit`` started from
    the committing event. What the network carried is 433.
    """
    stats = _cli_shaped_stats(16, 4, 2, 7, 15.0, 4)
    assert stats["envelopes"] == 1175
    assert [s["envelopes"] for s in stats["per_shard"]] == [583, 592]
    assert stats["lookahead_violations"] == 0

    stats = _cli_shaped_stats(256, 8, 4, 11, 20.0, 2)
    assert stats["envelopes"] == 433
    assert [s["envelopes"] for s in stats["per_shard"]] == [78, 141, 75, 139]
    assert stats["lookahead_violations"] == 0
    assert (stats["windows"], stats["stall_seconds"]) == (0, 0.0)
