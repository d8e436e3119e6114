"""Extension experiment: bursty traffic vs the paper's Poisson model.

Interactive mobile applications are bursty, not Poisson. At matched
average rates, bursts raise the probability that a tagged computation
message races a checkpoint request — the situation that forces mutable
checkpoints — so the redundant-mutable count comes alive while the
tentative count stays in the same band. The paper's "<4 % of tentative"
bound should still hold: the extension probes how much headroom it has.
"""

from __future__ import annotations

from benchmarks.bench_util import run_bench, run_point_to_point

AVERAGE_RATE = 0.01  # msgs/s/process, the lively region of Fig. 5


def run_poisson(seed):
    return run_point_to_point(
        "mutable", 1.0 / AVERAGE_RATE, seed=seed, initiations=20
    )


def run_bursty(seed):
    # duty cycle 5 s ON / 95 s OFF at 0.5 s inter-send -> same 0.01 avg
    return run_bench(
        workload="bursty",
        workload_params={
            "burst_send_interval": 0.5, "mean_on": 5.0, "mean_off": 95.0
        },
        seed=seed,
        initiations=20,
    )


def test_bursty_vs_poisson():
    def run_both():
        seeds = (11, 12, 13)
        poisson = [run_poisson(s) for s in seeds]
        bursty = [run_bursty(s) for s in seeds]

        def agg(results, attr):
            values = [getattr(r, attr)().mean for r in results]
            return sum(values) / len(values)

        return {
            "poisson_tentative": agg(poisson, "tentative_summary"),
            "poisson_redundant": agg(poisson, "redundant_mutable_summary"),
            "bursty_tentative": agg(bursty, "tentative_summary"),
            "bursty_redundant": agg(bursty, "redundant_mutable_summary"),
            "bursty_ratio": max(r.redundant_ratio for r in bursty),
        }

    row = run_both()
    print(f"\nmatched avg rate {AVERAGE_RATE} msg/s:")
    print(f"  poisson: tentative={row['poisson_tentative']:.2f} "
          f"redundant={row['poisson_redundant']:.4f}")
    print(f"  bursty : tentative={row['bursty_tentative']:.2f} "
          f"redundant={row['bursty_redundant']:.4f}")
    # bursts concentrate dependency creation; redundant mutables at least
    # match the Poisson level, and the paper's 4% bound still holds
    assert row["bursty_redundant"] >= row["poisson_redundant"] - 1e-9
    assert row["bursty_ratio"] <= 0.04 + 1e-9
