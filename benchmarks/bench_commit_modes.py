"""§3.3.5 second-phase trade-off: broadcast vs update vs auto commit.

The paper: "If there are many communications among processes during the
last checkpoint interval, the broadcast approach is better … if only a
limited number of message exchanges, the update approach is better."

Measured here as second-phase messages per initiation under sparse and
dense workloads. The auto mode (counter + threshold) should track the
winner on both.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_util import run_point_to_point
from repro.checkpointing.mutable import MutableCheckpointProtocol

MODES = ["broadcast", "update", "auto"]
#: sparse: few dependencies per initiation; dense: everybody involved
WORKLOADS = {"sparse": 400.0, "dense": 20.0}


def second_phase_messages(result) -> float:
    """Commit unicasts + broadcast fan-out per initiation."""
    n_init = max(result.n_initiations, 1)
    unicast = result.counters.get("system_messages_commit", 0.0)
    broadcast_fanout = result.counters.get("broadcasts", 0.0) * (
        result.n_processes - 1
    )
    return (unicast + broadcast_fanout) / n_init


@pytest.mark.parametrize("density", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", MODES)
def test_commit_mode(mode, density):
    def run():
        return run_point_to_point(
            MutableCheckpointProtocol(commit_mode=mode),
            mean_send_interval=WORKLOADS[density],
            initiations=10,
        )

    result = run()
    msgs = second_phase_messages(result)
    print(f"\ncommit-mode {mode:9s} {density:6s}: {msgs:6.2f} msgs/commit")


def test_commit_mode_tradeoff():
    """The §3.3.5 claim, end to end."""

    def run_all():
        out = {}
        for density, interval in WORKLOADS.items():
            for mode in MODES:
                result = run_point_to_point(
                    MutableCheckpointProtocol(commit_mode=mode),
                    mean_send_interval=interval,
                    initiations=10,
                )
                out[(density, mode)] = second_phase_messages(result)
        return out

    msgs = run_all()
    print()
    for key in sorted(msgs):
        print(f"  {key}: {msgs[key]:.2f} msgs/commit")
    # sparse: update beats broadcast; dense: broadcast no worse than update
    assert msgs[("sparse", "update")] < msgs[("sparse", "broadcast")]
    assert msgs[("dense", "broadcast")] <= msgs[("dense", "update")] + 1e-9
    # auto tracks (or beats) the winner on both, within one message
    assert msgs[("sparse", "auto")] <= msgs[("sparse", "broadcast")] + 1.0
    assert msgs[("dense", "auto")] <= msgs[("dense", "update")] + 1.0
