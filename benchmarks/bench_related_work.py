"""The §6 related-work landscape on one workload.

Every coordinated approach the paper discusses, measured on identical
traffic: synchronization messages, blocked process-time, and stable
checkpoints per committed round. The mutable algorithm should sit on
the Pareto frontier: zero blocking *and* minimum checkpoints, at modest
message cost; every baseline gives one of those up.
"""

from __future__ import annotations

from benchmarks.bench_util import build_bench, build_system
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.chandy_lamport import ChandyLamportProtocol
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.timer_based import TimerBasedProtocol
from repro.core.config import PointToPointWorkloadConfig
from repro.workload.point_to_point import PointToPointWorkload

N = 16
SEED = 21
MEAN_INTERVAL = 200.0
ROUNDS = 8


def run_runner_protocol(protocol):
    system, _, runner = build_bench(
        protocol, workload_params={"mean_send_interval": MEAN_INTERVAL},
        seed=SEED, n_processes=N, initiations=ROUNDS, warmup=1,
    )
    result = runner.run(max_events=DEFAULT_MAX_EVENTS)
    # counters and trace cover every committed round, warmup included
    return _row(system, result.counters, runner.committed, result.total_blocked_time)


def run_timer_based():
    protocol = TimerBasedProtocol(interval=400.0, max_skew=1.0, detection_time=2.0)
    system = build_system(protocol, seed=SEED, n_processes=N)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(MEAN_INTERVAL))
    workload.start()
    protocol.start(rounds=ROUNDS - 1)
    system.sim.run(until=400.0 * ROUNDS)
    workload.stop()
    system.run_until_quiescent()
    blocked = sum(p.total_blocked_time for p in system.processes.values())
    return _row(system, system.metrics.counters(), ROUNDS - 1, blocked)


def _row(system, counters, rounds, blocked):
    rounds = max(rounds, 1)
    tentatives = system.sim.trace.count("tentative")
    return {
        "messages_per_round": round(
            (counters.get("system_messages", 0.0)
             + counters.get("broadcasts", 0.0) * (N - 1)) / rounds, 1
        ),
        "blocked_proc_s_per_round": round(blocked / rounds, 1),
        "checkpoints_per_round": round(tentatives / rounds, 1),
    }


def test_related_work_landscape():
    def run_all():
        return {
            "timer-based": run_timer_based(),
            "chandy-lamport": run_runner_protocol(ChandyLamportProtocol()),
            "elnozahy": run_runner_protocol(ElnozahyProtocol()),
            "koo-toueg": run_runner_protocol(KooTouegProtocol()),
            "mutable": run_runner_protocol(MutableCheckpointProtocol()),
        }

    rows = run_all()
    print()
    header = f"{'algorithm':<16}{'msgs/round':>12}{'blocked s':>12}{'ckpts':>8}"
    print(header)
    for name, row in rows.items():
        print(
            f"{name:<16}{row['messages_per_round']:>12}"
            f"{row['blocked_proc_s_per_round']:>12}"
            f"{row['checkpoints_per_round']:>8}"
        )
    # §6's landscape:
    assert rows["timer-based"]["messages_per_round"] == 0          # clocks, no msgs
    assert rows["timer-based"]["blocked_proc_s_per_round"] > 0     # but blocks
    assert rows["chandy-lamport"]["messages_per_round"] >= N * (N - 1)  # O(N^2)
    assert rows["koo-toueg"]["blocked_proc_s_per_round"] > 0
    assert rows["mutable"]["blocked_proc_s_per_round"] == 0
    # min-process: fewer stable checkpoints than every all-process scheme
    for all_process in ("timer-based", "chandy-lamport", "elnozahy"):
        assert (
            rows["mutable"]["checkpoints_per_round"]
            <= rows[all_process]["checkpoints_per_round"] + 1e-9
        )
