#!/usr/bin/env python3
"""Failure handling (§3.6) and rollback recovery.

Three acts:

1. an MH fails in the middle of a checkpointing coordination under the
   ABORT policy — everything from that initiation is discarded;
2. the same situation under Kim-Park PARTIAL_COMMIT — participants that
   do not depend on the failed process keep their checkpoints;
3. full rollback: every process restores the latest consistent
   recovery line and the lost computation is quantified.

Run:  python examples/failure_and_recovery.py
"""

from repro import MobileSystem, PointToPointWorkloadConfig, SystemConfig
from repro.checkpointing import MutableCheckpointProtocol
from repro.checkpointing.failures import FailureInjector, FailurePolicy
from repro.checkpointing.recovery import DistributedRecovery
from repro.workload import PointToPointWorkload


def build(policy: FailurePolicy, seed: int):
    config = SystemConfig(n_processes=8, seed=seed)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    workload.start()
    system.sim.run(until=100.0)
    injector = FailureInjector(system, policy)
    return system, injector


def act1_abort() -> None:
    system, injector = build(FailurePolicy.ABORT, seed=42)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=system.sim.now + 0.5)
    injector.fail_process(3)
    system.sim.run(until=system.sim.now + 60.0)
    aborts = system.sim.trace.count("abort")
    discarded = system.sim.trace.count("tentative_discarded")
    print(f"act 1 (ABORT): p3 failed mid-checkpointing -> {aborts} abort, "
          f"{discarded} tentative checkpoint(s) discarded")


def act2_partial_commit() -> None:
    system, injector = build(FailurePolicy.PARTIAL_COMMIT, seed=7)
    trigger = None
    assert system.protocol.processes[0].initiate()
    trigger = system.protocol.processes[0].initiating
    system.sim.run(until=system.sim.now + 3.0)
    participants = [
        pid
        for pid, proc in system.protocol.processes.items()
        if trigger in proc.pending_tentative and pid != 0
    ]
    # pick the participant the fewest others depend on, so the partial
    # commit has survivors to show
    def dependents(victim: int) -> int:
        return sum(
            1
            for pid, proc in system.protocol.processes.items()
            if trigger in proc.pending_tentative
            and proc.pending_tentative[trigger].prev_r[victim]
        )

    victim = min(participants, key=dependents)
    injector.fail_process(victim)
    system.sim.run(until=system.sim.now + 60.0)
    record = system.sim.trace.last("partial_commit")
    print(f"act 2 (PARTIAL_COMMIT): p{victim} failed; "
          f"committed={list(record['committed'])} excluded={list(record['excluded'])}")


def act3_rollback() -> None:
    config = SystemConfig(n_processes=8, seed=11)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    workload.start()
    system.sim.run(until=200.0)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=400.0)
    workload.stop()
    system.run_until_quiescent()

    injector = FailureInjector(system)
    injector.fail_process(5)
    injector.restart_process(5)

    round_ = DistributedRecovery(system).rollback()
    times = sorted(set(round(rec.time_taken, 1) for rec in round_.line.values()))
    print(f"act 3 (rollback): {len(round_.line)} processes rolled back "
          f"to checkpoints taken at t={times}; "
          f"{round_.lost_messages} delivered message(s) will be re-executed")


def act4_distributed_recovery() -> None:
    """The same rollback as an actual message protocol: incarnation
    numbers, rollback_request/ack/resume, ghost filtering."""
    config = SystemConfig(n_processes=8, seed=13)
    system = MobileSystem(config, MutableCheckpointProtocol())
    recovery = DistributedRecovery(system)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    workload.start()
    system.sim.run(until=100.0)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=250.0)
    round_ = recovery.recover(initiator_pid=4)
    system.sim.run(until=300.0)
    workload.stop()
    system.run_until_quiescent()
    print(f"act 4 (distributed): incarnation {round_.incarnation} recovered in "
          f"{round_.duration * 1000:.1f} ms of protocol time; "
          f"{system.metrics.value('stale_incarnation_dropped'):.0f} ghost "
          f"message(s) filtered; computation resumed")


def main() -> None:
    act1_abort()
    act2_partial_commit()
    act3_rollback()
    act4_distributed_recovery()


if __name__ == "__main__":
    main()
