#!/usr/bin/env python3
"""A mobile field-survey application — the kind of workload the paper's
introduction motivates.

Seven field agents on mobile hosts collect observations and report them
to an aggregator process running on the support station. The
checkpointing layer makes the distributed tally fault tolerant:

1. agents stream observation reports; the aggregator keeps a running
   total (application state protected by checkpoints);
2. the aggregator publishes interim results to the outside world only
   through output commit (§5.3) — a result, once printed, can never be
   contradicted by a rollback;
3. an agent's mobile host crashes mid-run; the §3.6 abort protocol
   cleans up the in-flight coordination;
4. everyone rolls back to the last committed recovery line; messages
   lost in transit across the line are replayed from the sender log;
5. the invariant "aggregator total == sum of agents' reported counts"
   holds again after recovery — on states, not just on counters.

Run:  python examples/mobile_field_survey.py
"""

from repro import MobileSystem, SystemConfig
from repro.checkpointing import MutableCheckpointProtocol
from repro.checkpointing.failures import FailureInjector
from repro.checkpointing.message_log import SenderMessageLog
from repro.checkpointing.recovery import DistributedRecovery
from repro.core.output_commit import OutputCommitManager
from repro.workload.base import Workload

AGGREGATOR = 0
N_AGENTS = 7


class SurveyWorkload(Workload):
    """Agents observe at random intervals and report each batch."""

    def __init__(self, system):
        super().__init__(system)
        for pid in range(1, N_AGENTS + 1):
            system.processes[pid].app_state["observations"] = 0
            system.processes[pid].app_state["reported"] = 0
        system.processes[AGGREGATOR].app_state["total"] = 0
        system.add_deliver_hook(self._on_deliver)

    def _schedule_initial(self):
        for pid in range(1, N_AGENTS + 1):
            self._schedule_next(pid)

    def _schedule_next(self, pid):
        delay = self.system.streams.exponential(f"survey.{pid}", 4.0)
        self.system.sim.schedule(delay, self._observe, pid)

    def _observe(self, pid):
        if not self.running:
            return
        process = self.system.processes[pid]
        batch = self.system.streams.uniform_int(f"survey.batch.{pid}", 1, 5)
        process.app_state["observations"] += batch
        process.app_state["reported"] += batch
        self._send(pid, AGGREGATOR)
        # the report carries the batch size as payload
        self.system.sim.trace.record(
            self.system.sim.now, "survey_report", pid=pid, batch=batch
        )
        self._last_batch = batch
        self._schedule_next(pid)

    def _send(self, pid, dst):  # attach the batch as the payload
        process = self.system.processes[pid]
        if getattr(process.host, "disconnected", False):
            return
        self.messages_generated += 1
        batch = process.app_state["reported"]
        process.send_computation(dst, payload=("report", pid, batch))

    def _on_deliver(self, process, message):
        if process.pid != AGGREGATOR or not isinstance(message.payload, tuple):
            return
        kind, agent, reported = message.payload
        if kind != "report":
            return
        state = process.app_state
        key = f"seen_{agent}"
        previous = state.get(key, 0)
        state["total"] = state.get("total", 0) + (reported - previous)
        state[key] = reported


def check_invariant(system) -> bool:
    """Aggregator total == sum of agent counts it has been told about."""
    agg = system.processes[AGGREGATOR].app_state
    return agg.get("total", 0) == sum(
        agg.get(f"seen_{pid}", 0) for pid in range(1, N_AGENTS + 1)
    )


def main() -> None:
    system = MobileSystem(
        SystemConfig(n_processes=N_AGENTS + 1, processes_on_mss=1, seed=77),
        MutableCheckpointProtocol(),
    )
    log = SenderMessageLog(system)
    outputs = OutputCommitManager(system)
    workload = SurveyWorkload(system)
    workload.start()

    # Phase 1: collect, then publish an interim result via output commit.
    # The output's value is fixed when it is requested; the checkpointing
    # it triggers guarantees the state that produced it survives any
    # future rollback.
    system.sim.run(until=120.0)
    total_at_request = system.processes[AGGREGATOR].app_state["total"]
    request = outputs.request_output(AGGREGATOR, payload=total_at_request)
    system.sim.run(until=240.0)
    assert request.released
    print(f"t=120s interim total {request.payload} published after "
          f"{request.delay:.2f}s output-commit delay")

    # Phase 2: more collection, then a crash mid-checkpointing.
    system.sim.run(until=400.0)
    assert system.protocol.processes[AGGREGATOR].initiate()
    system.sim.run(until=400.5)
    injector = FailureInjector(system)
    injector.fail_process(3)
    system.sim.run(until=520.0)
    print(f"agent 3 crashed during a checkpointing -> "
          f"{system.sim.trace.count('abort')} abort broadcast")

    workload.stop()
    system.run_until_quiescent()
    injector.restart_process(3)

    # Phase 3: rollback and lost-message replay.
    round_ = DistributedRecovery(system).rollback()
    lost = log.replay(round_.line)
    print(f"rolled back {len(round_.line)} processes; "
          f"{round_.lost_messages} deliveries undone; "
          f"{len(lost)} in-transit report(s) replayed from the sender log")

    restored_total = system.processes[AGGREGATOR].app_state["total"]
    print(f"restored aggregator total: {restored_total}")
    # The outside world never sees a contradiction: the recovery line is
    # at (or after) the checkpoint that released the published output.
    assert restored_total >= request.payload, "published output orphaned!"
    print(f"published result {request.payload} still covered by the "
          f"restored state ({restored_total} >= {request.payload}) ✓")
    assert check_invariant(system), "aggregate invariant broken after recovery"
    print("invariant after recovery: aggregator total == sum of seen agent counts ✓")


if __name__ == "__main__":
    main()
