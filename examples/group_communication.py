#!/usr/bin/env python3
"""Figure 6 regeneration: group communication.

Four groups of four processes; only group leaders talk across groups,
at 1/1000 (left graph of Fig. 6) and 1/10000 (right graph) of the
intragroup rate. Prints both graphs' curves next to the point-to-point
baseline so the paper's claim — group communication takes fewer
checkpoints, and the 10000x ratio fewer still — is visible directly.

Run:  python examples/group_communication.py [--fast]
"""

import sys

from repro.campaign import run_preset


def by_rate(report, ratio=None):
    """{rate: result} of a preset report (one intra:inter ratio of fig6)."""
    return {
        1.0 / point.workload_params["mean_send_interval"]: result
        for point, result in zip(report.points, report.results())
        if point.workload_params.get("intra_inter_ratio") == ratio
    }


def main() -> None:
    initiations = 12 if "--fast" in sys.argv else 32
    # the grid `repro-sim campaign --preset fig6` runs, next to the fig5
    # preset's point-to-point runs at the same rates
    group = run_preset("fig6", max_initiations=initiations)
    baseline = by_rate(run_preset("fig5", max_initiations=initiations))
    lefts, rights = by_rate(group, 1_000.0), by_rate(group, 10_000.0)
    print("Figure 6 — group communication, 4 groups x 4, N = 16")
    header = f"{'rate':>8} | {'1000x tent':>10} {'red':>6} | {'10000x tent':>11} {'red':>6} | {'p2p tent':>8}"
    print(header)
    print("-" * len(header))
    for rate, left in lefts.items():
        right, p2p = rights[rate], baseline[rate]
        print(
            f"{rate:>8.3f} | {left.tentative_summary().mean:>10.2f} "
            f"{left.redundant_mutable_summary().mean:>6.3f} | "
            f"{right.tentative_summary().mean:>11.2f} "
            f"{right.redundant_mutable_summary().mean:>6.3f} | "
            f"{p2p.tentative_summary().mean:>8.2f}"
        )
    print()
    print("paper shape: group < point-to-point; 10000x ratio <= 1000x ratio.")


if __name__ == "__main__":
    main()
