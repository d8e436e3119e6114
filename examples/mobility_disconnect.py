#!/usr/bin/env python3
"""Mobility and disconnection during checkpointing (paper §2.2).

A two-cell system where, while traffic flows:

1. an MH hands off to the other cell mid-run (traffic is forwarded by
   the old MSS — correctness proof Case 2);
2. an MH voluntarily disconnects, leaving a disconnect checkpoint with
   its MSS; a checkpointing initiated while it is away completes
   without it, the MSS converting the disconnect checkpoint on its
   behalf (Case 3);
3. the MH reconnects at the *other* cell and replays its buffered
   messages.

The final recovery line is verified with the independent checkers.

Run:  python examples/mobility_disconnect.py
"""

from repro import MobileSystem, PointToPointWorkloadConfig, SystemConfig
from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.checkpointing import MutableCheckpointProtocol
from repro.checkpointing.disconnect_support import disconnect_process, reconnect_process
from repro.net.mobility import handoff
from repro.workload import PointToPointWorkload


def main() -> None:
    config = SystemConfig(n_processes=6, n_mss=2, seed=7)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    workload.start()

    sim = system.sim
    sim.run(until=60.0)

    # 1. handoff: process 1's MH moves to the other cell
    mh1 = system.processes[1].host
    old = mh1.mss
    new = next(mss for mss in system.mss_list if mss is not old)
    handoff(system.network, mh1, new)
    sim.run(until=120.0)
    hrec = sim.trace.last("handoff_complete")
    print(f"handoff: {mh1.name} moved {old.name} -> {new.name}, "
          f"{hrec['forwarded']} message(s) forwarded by the old MSS")

    # 2. disconnect: process 2 leaves; a checkpointing completes without it
    record = disconnect_process(system, 2)
    print(f"disconnect: mh2 left its checkpoint with {system.mss_for(2).name}")
    sim.run(until=180.0)
    assert system.protocol.processes[0].initiate()
    sim.run(until=300.0)
    commit = sim.trace.last("commit")
    print(f"checkpointing initiated by p0 committed at t={commit.time:.1f}s "
          f"while mh2 was disconnected")
    print(f"MSS took a checkpoint on p2's behalf: {record.checkpoint_taken_on_behalf}")

    # 3. reconnect at the other cell
    buffered = len(record.buffered)
    reconnect_process(system, 2, system.mss_list[1])
    sim.run(until=360.0)
    print(f"reconnect: mh2 reattached at mss1, {buffered} buffered message(s) replayed")

    workload.stop()
    system.run_until_quiescent()

    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    print("recovery line after handoff + disconnect cycle: consistent")


if __name__ == "__main__":
    main()
