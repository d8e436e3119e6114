"""Scaling in N: the O(N²) -> O(N) message reduction (§5.3.2).

"When N_min = N, the message reduction can be from O(N²) to O(N)." The
paper argues it analytically; here it is measured: system messages per
initiation for Koo-Toueg vs the mutable algorithm at N = 8, 16, 32 on a
dense workload (everyone is a participant), and the growth exponents
estimated from the measurements.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.bench_util import build_bench
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol

SIZES = [8, 16, 32]


def messages_per_initiation(protocol_cls, n, seed=5):
    # dense: mean interval scaled so everyone stays a participant
    _, _, runner = build_bench(
        protocol_cls(), workload_params={"mean_send_interval": 30.0},
        seed=seed, n_processes=n, initiations=6, warmup=1,
    )
    result = runner.run(max_events=DEFAULT_MAX_EVENTS)
    unicast = result.counters.get("system_messages", 0.0)
    broadcast = result.counters.get("broadcasts", 0.0) * (n - 1)
    return (unicast + broadcast) / max(runner.committed, 1)


def growth_exponent(xs, ys):
    """Least-squares slope of log(y) over log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den


@pytest.mark.parametrize("n", SIZES)
def test_scaling_point(benchmark, n):
    def run():
        return {
            "koo-toueg": messages_per_initiation(KooTouegProtocol, n),
            "mutable": messages_per_initiation(MutableCheckpointProtocol, n),
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update({"n": n, **{k: round(v, 1) for k, v in row.items()}})
    print(f"\nN={n}: msgs/initiation koo-toueg={row['koo-toueg']:.1f} "
          f"mutable={row['mutable']:.1f}")


def test_fixed_workload_advantage(benchmark):
    """On a free-running workload the advantage is a constant factor
    (N_dep saturates at the achievable dependency density)."""

    def run():
        kt = [messages_per_initiation(KooTouegProtocol, n) for n in SIZES]
        mu = [messages_per_initiation(MutableCheckpointProtocol, n) for n in SIZES]
        return kt, mu

    kt, mu = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  koo-toueg msgs: {[round(v, 1) for v in kt]}")
    print(f"  mutable   msgs: {[round(v, 1) for v in mu]}")
    for a, b in zip(kt, mu):
        assert a > 4 * b


def dense_initiation_messages(protocol_cls, n):
    """The §5.3.2 worst case, constructed exactly: every process depends
    on every other (all-to-all sends delivered), then one initiation."""
    from repro.scenarios.harness import ScenarioHarness

    h = ScenarioHarness(n, protocol_cls())
    for src in range(n):
        for dst in range(n):
            if src != dst:
                h.deliver(h.send(src, dst))
    h.initiate(0)
    h.deliver_all_system()
    assert h.trace.count("tentative") == n  # N_min = N here
    return h.trace.count("sys_send")


def test_scaling_exponents_worst_case(benchmark):
    """N_min = N: Koo-Toueg is O(N^2), the mutable algorithm far flatter
    (§5.3.2's 'from O(N²) to O(N)')."""

    def run():
        kt = [dense_initiation_messages(KooTouegProtocol, n) for n in SIZES]
        mu = [dense_initiation_messages(MutableCheckpointProtocol, n) for n in SIZES]
        return kt, mu

    kt, mu = benchmark.pedantic(run, rounds=1, iterations=1)
    kt_exp = growth_exponent(SIZES, kt)
    mu_exp = growth_exponent(SIZES, mu)
    print(f"\nworst-case exponents: koo-toueg={kt_exp:.2f} mutable={mu_exp:.2f}")
    print(f"  koo-toueg msgs: {kt}")
    print(f"  mutable   msgs: {mu}")
    assert kt_exp > 1.8              # quadratic
    assert mu_exp < kt_exp - 0.4     # clearly flatter
    # the gap widens with N — the O(N^2) -> O(N)-ish reduction
    assert kt[-1] / mu[-1] > kt[0] / mu[0]
