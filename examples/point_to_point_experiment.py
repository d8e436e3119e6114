#!/usr/bin/env python3
"""Figure 5 regeneration: checkpoints vs message sending rate.

Sweeps the per-process message sending rate under the paper's
point-to-point workload and prints the two curves of Fig. 5: tentative
checkpoints per initiation and redundant mutable checkpoints per
initiation, plus the redundant/tentative ratio the paper bounds by 4 %.

Run:  python examples/point_to_point_experiment.py [--fast]
"""

import sys

from repro.analysis.ascii_chart import render_chart
from repro.campaign import run_preset


def main() -> None:
    initiations = 12 if "--fast" in sys.argv else 42
    # the sweep `repro-sim campaign --preset fig5` runs, rescaled
    report = run_preset("fig5", max_initiations=initiations)
    print("Figure 5 — point-to-point communication, N = 16, 900 s intervals")
    print(f"{'rate msg/s':>10} {'tentative':>10} {'redundant':>10} {'ratio':>8} {'ci<=10%':>8}")
    rates, tentative_curve, redundant_curve = [], [], []
    for point, result in zip(report.points, report.results()):
        rate = 1.0 / point.workload_params["mean_send_interval"]
        tent = result.tentative_summary()
        red = result.redundant_mutable_summary()
        rates.append(rate)
        tentative_curve.append(tent.mean)
        redundant_curve.append(red.mean)
        print(
            f"{rate:>10.3f} {tent.mean:>10.2f} {red.mean:>10.3f} "
            f"{result.redundant_ratio:>8.4f} {str(tent.meets_paper_precision()):>8}"
        )
    print()
    print(render_chart(
        rates,
        {"tentative": tentative_curve, "redundant mutable": redundant_curve},
        title="Fig. 5: checkpoints per initiation vs message sending rate",
        x_label="rate (msg/s, log)",
        y_label="checkpoints per initiation",
        log_x=True,
    ))
    print()
    print("paper shape: tentative grows toward N=16 with the rate;")
    print("redundant mutable rises then falls, always < 4% of tentative.")


if __name__ == "__main__":
    main()
