"""§6 related-work study: uncoordinated checkpointing and the domino effect.

Three regimes on the same workload:

* **periodic-only uncoordinated** — checkpoints on a timer, nothing
  else: the maximal-consistent-line search must cascade (the domino
  effect that motivated coordinated checkpointing);
* **Acharya-Badrinath** — the receive-after-send rule keeps rollback
  shallow on realistic workloads (senders checkpoint regularly), at the
  §6 cost of a checkpoint per ~two messages;
* **mutable-checkpoint algorithm** — the newest permanents *are* the
  recovery line (zero search), with an order of magnitude fewer stable
  checkpoints.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_util import build_bench
from repro.analysis.recovery_line import checkpoint_histories, maximal_consistent_line
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.uncoordinated import UncoordinatedProtocol

HORIZON = 900.0
MEAN_INTERVAL = 10.0


def run_system(protocol="mutable", seed=13, **kwargs):
    """8 traced processes on the study's workload, run to completion."""
    system, workload, runner = build_bench(
        protocol, workload_params={"mean_send_interval": MEAN_INTERVAL},
        seed=seed, n_processes=8, trace_messages=True, warmup=1, **kwargs,
    )
    runner.run(max_events=DEFAULT_MAX_EVENTS)
    return system, workload


def run_regime(protocol, interval=120.0, seed=13):
    system, workload = run_system(
        protocol, seed, checkpoint_interval=interval,
        initiations=10_000, time_limit=HORIZON,
    )
    workload.stop()
    system.run_until_quiescent()
    histories = checkpoint_histories(system.all_stable_storages(), system.processes)
    search = maximal_consistent_line(histories)
    stored = sum(len(records) for records in histories.values())
    return {
        "stable_checkpoints": stored,
        "max_rollback_depth": max(search.rollback_depth.values()),
        "total_rollback_depth": search.total_rollback_depth,
        "domino": search.domino,
    }


def test_periodic_uncoordinated_suffers_domino(benchmark):
    def run():
        # several seeds: the cascade depends on message luck
        rows = [
            run_regime(UncoordinatedProtocol(ab_rule=False), seed=seed)
            for seed in (13, 17, 19, 23)
        ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    worst = max(r["max_rollback_depth"] for r in rows)
    print(f"\nperiodic-only: per-seed max rollback depths = "
          f"{[r['max_rollback_depth'] for r in rows]}")
    assert worst >= 2  # cascading rollback observed


def test_ab_rule_keeps_rollback_shallow(benchmark):
    """On free-running workloads (everyone sends and receives, so
    senders checkpoint frequently) the AB rule keeps the search shallow.
    The absolute one-checkpoint folklore bound is false in general —
    property testing found a sends-only counterexample — so the
    assertion here is the realistic-workload one."""

    def run():
        return [
            run_regime(UncoordinatedProtocol(ab_rule=True), seed=seed)
            for seed in (13, 17, 19)
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nAB rule: max rollback depths = "
          f"{[r['max_rollback_depth'] for r in rows]}")
    for row in rows:
        assert row["max_rollback_depth"] <= 1
        assert not row["domino"]


def test_coordinated_needs_no_search(benchmark):
    def run():
        system, _ = run_system(initiations=6)
        histories = checkpoint_histories(
            system.all_stable_storages(), system.processes
        )
        return maximal_consistent_line(histories)

    search = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nmutable: total rollback depth = {search.total_rollback_depth}")
    assert search.total_rollback_depth == 0


def test_storage_cost_ordering(benchmark):
    """§6: uncoordinated approaches keep far more stable checkpoints."""

    def run():
        ab = run_regime(UncoordinatedProtocol(ab_rule=True), seed=13)
        system, _ = run_system(initiations=6)
        coordinated = sum(len(s) for s in system.all_stable_storages())
        return ab["stable_checkpoints"], coordinated

    ab_count, coordinated_count = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nstable checkpoints: AB={ab_count} vs mutable={coordinated_count}")
    assert ab_count > 5 * coordinated_count
