"""Checkpoint-interval sensitivity: overhead vs lost work.

The paper fixes the interval at 900 s without discussion; this ablation
shows the trade-off that choice sits on:

* short intervals  -> more checkpointing traffic (512 KB transfers per
  initiation) but little computation lost at a failure;
* long intervals   -> cheap steady state but a failure rolls back more
  delivered messages.

Measured as (stable bytes shipped per simulated hour, messages lost at a
failure injected at a fixed time).
"""

from __future__ import annotations

import pytest

from benchmarks.bench_util import build_bench
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.recovery import DistributedRecovery

INTERVALS = [120.0, 450.0, 1800.0]
HORIZON = 3600.0
FAIL_AT = 3300.0


def run_interval(interval: float, seed: int = 5):
    system, workload, runner = build_bench(
        workload_params={"mean_send_interval": 10.0}, seed=seed,
        n_processes=8, checkpoint_interval=interval, initiations=10_000,
        warmup=1, time_limit=HORIZON,
    )
    runner.run(max_events=DEFAULT_MAX_EVENTS)
    workload.stop()
    system.run_until_quiescent()
    # overhead: checkpoint bytes shipped per simulated hour
    ckpt_bytes = sum(mh.background_bytes for mh in system.mhs)
    # lost work: messages undone by a rollback at the end of the run
    report = DistributedRecovery(system).rollback()
    return {
        "interval_s": interval,
        "ckpt_mb_per_hour": round(ckpt_bytes / 1e6 * 3600.0 / HORIZON, 1),
        "lost_messages": report.lost_messages,
        "commits": runner.committed,
    }


@pytest.mark.parametrize("interval", INTERVALS)
def test_interval_point(interval):
    row = run_interval(interval)
    print(f"\ninterval={interval:6.0f}s: {row}")


def test_interval_tradeoff_shape():
    """Overhead decreases and lost work increases with the interval."""

    def run_all():
        return [run_interval(interval) for interval in INTERVALS]

    rows = run_all()
    print()
    for row in rows:
        print(f"  {row}")
    overhead = [r["ckpt_mb_per_hour"] for r in rows]
    lost = [r["lost_messages"] for r in rows]
    assert overhead[0] > overhead[-1], "short intervals must cost more bandwidth"
    assert lost[0] < lost[-1], "long intervals must lose more work"
