"""Experiment-campaign subsystem: declarative sweeps, parallel
execution, durable resumable results.

The paper's whole §5 evaluation is a grid of independent
``(protocol, workload, config, seed)`` simulation runs. This package
turns such a grid into a :class:`CampaignSpec`, expands it into
content-hashed :class:`RunPoint` s, executes them on a
``multiprocessing`` pool (bit-identical to serial execution), and
persists each outcome durably in a :class:`ResultStore` so a crashed or
interrupted campaign resumes where it stopped::

    from repro.campaign import CampaignEngine, CampaignSpec, ResultStore

    spec = CampaignSpec(
        name="rate-sweep",
        protocols=["mutable", "koo-toueg"],
        workloads=[{"kind": "p2p", "mean_send_interval": 1 / r}
                   for r in (0.005, 0.02, 0.05)],
        run={"max_initiations": 22, "warmup_initiations": 2},
    )
    with ResultStore("sweep.jsonl") as store:
        report = CampaignEngine(spec, store=store, workers=4).run()
    for row in report.rows():
        print(row)
"""

from repro.campaign.cache import canonical_json, derive_seed, spec_hash
from repro.campaign.engine import (
    CampaignEngine,
    CampaignReport,
    build_point_runtime,
    build_point_system,
    execute_point,
    run_point,
    run_preset,
)
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import (
    DEFAULT_MAX_EVENTS,
    PRESETS,
    CampaignSpec,
    RunPoint,
    preset_spec,
)
from repro.campaign.store import PointRecord, ResultStore

__all__ = [
    "CampaignEngine",
    "CampaignReport",
    "CampaignSpec",
    "DEFAULT_MAX_EVENTS",
    "PRESETS",
    "PointRecord",
    "ProgressReporter",
    "ResultStore",
    "RunPoint",
    "build_point_runtime",
    "build_point_system",
    "canonical_json",
    "derive_seed",
    "execute_point",
    "preset_spec",
    "run_point",
    "run_preset",
    "spec_hash",
]
