"""The "negligible overhead" claim (§5.2/§5.3.1) and model ablations.

* mutable vs tentative checkpoint cost: the paper's 2.5 ms memory copy
  against the ~2.1 s wireless transfer — a factor ~1000;
* accounting ablation: strict commit-after-transfer vs precopy
  (reply-after-memory-copy) checkpointing durations;
* medium ablation: shared-cell bulk serialization (the 32 s worst case)
  vs per-MH concurrent transfers.
"""

from __future__ import annotations

from benchmarks.bench_util import run_point_to_point
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.net.params import NetworkParams


def test_mutable_vs_tentative_cost_ratio():
    """The paper's arithmetic: T_data / mutable_save ~ 1000x."""
    params = NetworkParams()
    tentative_cost = 512 * 1024 * 8 / params.wireless_bandwidth_bps

    def compute():
        return tentative_cost / params.mutable_save_time

    ratio = compute()
    print(f"\ntentative/mutable cost ratio: {ratio:.0f}x")
    assert ratio > 500


def test_checkpointing_time_strict_vs_precopy():
    """Strict mode: T_ch includes serialized transfers (paper's <= 32 s);
    precopy mode: T_ch is message-delay scale."""

    def run_both():
        strict = run_point_to_point(
            MutableCheckpointProtocol(reply_after_transfer=True),
            mean_send_interval=50.0,
            initiations=8,
        )
        precopy = run_point_to_point(
            MutableCheckpointProtocol(reply_after_transfer=False),
            mean_send_interval=50.0,
            initiations=8,
        )
        return strict.duration_summary().mean, precopy.duration_summary().mean

    strict_dur, precopy_dur = run_both()
    print(f"\nT_ch strict={strict_dur:.3f}s precopy={precopy_dur*1000:.1f}ms")
    assert strict_dur <= 2.2 * 16 + 1.0        # paper's 2s * N bound
    assert strict_dur > 100 * precopy_dur      # transfers dominate
    assert precopy_dur < 0.1


def test_shared_medium_vs_concurrent_transfers():
    """The 32 s figure comes from the shared 2 Mbps cell airtime."""

    def run_both():
        shared = run_point_to_point(
            MutableCheckpointProtocol(),
            mean_send_interval=30.0,
            initiations=8,
        )
        concurrent = run_point_to_point(
            MutableCheckpointProtocol(),
            mean_send_interval=30.0,
            initiations=8,
            network=NetworkParams(shared_cell_medium=False),
        )
        return shared.duration_summary().mean, concurrent.duration_summary().mean

    shared_dur, concurrent_dur = run_both()
    print(f"\nT_ch shared-medium={shared_dur:.2f}s concurrent={concurrent_dur:.2f}s")
    assert shared_dur > concurrent_dur
    assert concurrent_dur < 4.0   # one transfer time + messages


def test_redundant_mutable_overhead_share():
    """Total time spent on redundant mutable checkpoints is a vanishing
    share of the checkpointing cost (the §5.3.1 output-commit claim)."""

    def run():
        result = run_point_to_point(
            MutableCheckpointProtocol(), mean_send_interval=50.0, initiations=20
        )
        params = NetworkParams()
        redundant = sum(s.redundant_mutables for s in result.initiations)
        tentatives = sum(s.tentative_count for s in result.initiations)
        mutable_time = redundant * params.mutable_save_time
        tentative_time = tentatives * 512 * 1024 * 8 / params.wireless_bandwidth_bps
        return mutable_time, tentative_time

    mutable_time, tentative_time = run()
    share = mutable_time / max(tentative_time, 1e-12)
    print(f"\nredundant-mutable time share of checkpointing cost: {share:.2e}")
    assert share < 0.01
