"""Determinism witnesses for the timeseries sampler.

The sampler's whole value rests on being observably invisible: with it
enabled, the simulation's trace and event sequence must be *bit
identical* to a sampler-off run, and its own output must be a pure
function of (config, seed). These tests pin both properties against the
golden values of ``tests/integration/test_fastpath_determinism.py``.
"""

from __future__ import annotations

import io
import json

from repro.campaign.engine import CampaignEngine
from repro.campaign.spec import CampaignSpec
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.obs.timeseries import dump_timeseries_jsonl, dump_timeseries_tsv
from repro.workload.point_to_point import PointToPointWorkload

#: golden trace/clock values from test_fastpath_determinism.py — the
#: sampler-on runs below must reproduce them byte for byte (the
#: metrics_sha256 goldens are deliberately NOT pinned here: sampling
#: adds the wave.* instruments to the registry, which is the one
#: documented observable difference)
GOLDEN = {
    "A": {  # 8 processes, DEBUG tracing on
        "trace_hash": "9685b119d6fe43aa8c76e3163ec3a983a95ce8166d06743b71e8d02bd6688038",
        "wall_events": 4527,
        "sim_time": 2776.6242658445112,
    },
    "B": {  # 16 processes, tracing off (INFO)
        "trace_hash": "792922785025ba7fd51a3cbfc9716c6bda78f8ff1e729b7cda2aca42f2d38be7",
        "wall_events": 12675,
        "sim_time": 3652.4022692331855,
    },
}


def _run(n_processes, seed, trace_messages, max_initiations, window=None):
    config = SystemConfig(
        n_processes=n_processes,
        seed=seed,
        trace_messages=trace_messages,
        timeseries_window=window,
    )
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=max_initiations, warmup_initiations=1),
    )
    result = runner.run(max_events=10_000_000)
    return system, result


def test_sampler_on_matches_golden_trace_a():
    """DEBUG-trace config A with 60s windows: the golden trace hash,
    event count, and final clock are untouched by sampling."""
    system, _ = _run(8, 20260806, True, 4, window=60.0)
    assert system.sim.trace.content_hash() == GOLDEN["A"]["trace_hash"]
    assert system.sim.events_processed == GOLDEN["A"]["wall_events"]
    assert system.sim.now == GOLDEN["A"]["sim_time"]


def test_sampler_on_matches_golden_trace_b():
    """Fast-loop config B: the hooked loop reproduces the fused loop's
    goldens exactly."""
    system, _ = _run(16, 7, False, 6, window=60.0)
    assert system.sim.trace.content_hash() == GOLDEN["B"]["trace_hash"]
    assert system.sim.events_processed == GOLDEN["B"]["wall_events"]
    assert system.sim.now == GOLDEN["B"]["sim_time"]


def test_sampler_off_has_no_wave_instruments():
    """The wave.* instruments exist only while a sampler does, so a
    sampler-off metrics snapshot (and its golden sha) is unchanged."""
    _, result = _run(8, 20260806, True, 4, window=None)
    assert not any(
        name.startswith("wave.") for name in result.metrics["counters"]
    )
    assert not any(
        name.startswith("wave.") for name in result.metrics["histograms"]
    )
    assert result.timeseries == {}


def test_same_seed_exports_are_byte_identical():
    _, first = _run(8, 20260806, True, 4, window=60.0)
    _, second = _run(8, 20260806, True, 4, window=60.0)
    for dump in (dump_timeseries_jsonl, dump_timeseries_tsv):
        exports = [io.StringIO(), io.StringIO()]
        assert dump(first.timeseries, exports[0]) > 0
        dump(second.timeseries, exports[1])
        assert exports[0].getvalue() == exports[1].getvalue()


def test_window_events_sum_to_wall_events():
    """Every dispatched event lands in exactly one window."""
    system, result = _run(8, 20260806, True, 4, window=60.0)
    rows = result.timeseries["rows"]
    assert sum(r["events"] for r in rows) == system.sim.events_processed


def test_campaign_merged_timeseries_worker_count_independent():
    """workers=4 merges to the same bytes as workers=1 (like
    merged_metrics): delta rows add per window, order-independently."""
    spec = CampaignSpec(
        name="timeseries-witness",
        protocols=["mutable"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": interval}
            for interval in (30.0, 12.0)
        ],
        configs=[{"n_processes": 4, "timeseries_window": 120.0}],
        run={"max_initiations": 3, "warmup_initiations": 1},
        replicates=2,
        seed=3,
    )
    serial = CampaignEngine(spec, workers=1).run()
    parallel = CampaignEngine(spec, workers=4).run()
    merged_serial = serial.merged_timeseries()
    merged_parallel = parallel.merged_timeseries()
    assert merged_serial["rows"]
    assert json.dumps(merged_serial, sort_keys=True) == json.dumps(
        merged_parallel, sort_keys=True
    )
