"""Ablation: the §3.1.1 strawman schemes vs the full algorithm.

Measures stable checkpoints per computation message over a fixed time
horizon — the avalanche metric. Expected ordering (the motivation for
mutable checkpoints):

    basic csn scheme  >>  revised scheme  >>  mutable algorithm

The basic scheme's count can exceed one checkpoint per message (the
"chain may never end"); the mutable algorithm's stays near the
coordination-only minimum.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_util import build_bench
from repro.campaign.spec import DEFAULT_MAX_EVENTS
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.simple_schemes import BasicCsnProtocol, RevisedCsnProtocol

PROTOCOLS = {
    "csn-basic": BasicCsnProtocol,
    "csn-revised": RevisedCsnProtocol,
    "mutable": MutableCheckpointProtocol,
}

HORIZON = 4000.0
MEAN_INTERVAL = 20.0


def run_scheme(protocol_cls):
    system, _, runner = build_bench(
        protocol_cls(), workload_params={"mean_send_interval": MEAN_INTERVAL},
        seed=3, n_processes=8, trace_messages=True,
        initiations=10_000, warmup=1, time_limit=HORIZON,
    )
    try:
        runner.run(max_events=DEFAULT_MAX_EVENTS)
    except Exception:
        pass  # time_limit path; metrics below read the trace directly
    comp = system.sim.trace.count("comp_recv")
    stable = system.sim.trace.count("tentative")
    return {
        "comp_messages": comp,
        "stable_checkpoints": stable,
        "checkpoints_per_message": round(stable / max(comp, 1), 4),
    }


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_ablation_scheme(name):
    row = run_scheme(PROTOCOLS[name])
    print(f"\nAblation {name}: {row}")


def test_ablation_ordering():
    """basic >> revised >> mutable in checkpoints per message."""

    def run_all():
        return {name: run_scheme(cls) for name, cls in PROTOCOLS.items()}

    rows = run_all()
    print()
    for name, row in rows.items():
        print(f"  {name:12s} {row}")
    basic = rows["csn-basic"]["checkpoints_per_message"]
    revised = rows["csn-revised"]["checkpoints_per_message"]
    mutable = rows["mutable"]["checkpoints_per_message"]
    assert basic > revised > mutable
    assert basic > 10 * mutable  # the avalanche is not subtle
