#!/usr/bin/env python3
"""Quickstart: run the mutable-checkpoint algorithm on the paper's setup.

Builds the §5.1 system — 16 processes on mobile hosts in one 2 Mbps
wireless cell — drives a point-to-point workload, lets eight
checkpointing processes commit, and prints what the paper measures,
then verifies the final recovery line with the independent checkers.

Run:  python examples/quickstart.py
"""

from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.campaign import RunPoint, build_point_runtime


def main() -> None:
    # One plain-data description of the run (everything not named keeps
    # its §5.1 default), assembled by the builder every entry point uses.
    point = RunPoint(
        protocol="mutable",
        workload_params={"mean_send_interval": 60.0},
        run_params={"max_initiations": 8, "warmup_initiations": 1},
        seed=2026,
    )
    system, _, runner = build_point_runtime(point)

    result = runner.run()

    print("mutable-checkpoint algorithm, 16 processes, one wireless cell")
    print(f"  simulated time            : {result.sim_time:,.0f} s")
    print(f"  committed initiations     : {result.n_initiations} (after warmup)")
    print(f"  tentative ckpts/initiation: {result.tentative_summary()}")
    print(f"  redundant mutable ckpts   : {result.redundant_mutable_summary()}")
    print(f"  checkpointing time        : {result.duration_summary()} s")
    print(f"  blocking time             : {result.total_blocked_time:.1f} s (nonblocking!)")
    print(f"  system messages           : {result.counters['system_messages']:.0f}")

    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    print("  recovery line             : consistent (orphan scan + channel counts)")


if __name__ == "__main__":
    main()
