"""The §6 related-work landscape on one workload.

Every coordinated approach the paper discusses, measured on identical
traffic: synchronization messages, blocked process-time, and stable
checkpoints per committed round. The mutable algorithm should sit on
the Pareto frontier: zero blocking *and* minimum checkpoints, at modest
message cost; every baseline gives one of those up.
"""

from __future__ import annotations

from benchmarks.bench_util import build_bench
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.chandy_lamport import ChandyLamportProtocol
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.timer_based import TimerBasedProtocol

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
            "timer-based": run_runner_protocol(TimerBasedProtocol()),
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
