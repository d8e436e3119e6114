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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CampaignEngine": "engine",
    "CampaignReport": "engine",
    "CampaignSpec": "spec",
    "DEFAULT_MAX_EVENTS": "spec",
    "PRESETS": "spec",
    "PointRecord": "store",
    "ProgressReporter": "progress",
    "ResultStore": "store",
    "RunPoint": "spec",
    "build_point_runtime": "engine",
    "build_point_system": "engine",
    "canonical_json": "cache",
    "derive_seed": "cache",
    "execute_point": "engine",
    "preset_spec": "spec",
    "run_point": "engine",
    "run_preset": "engine",
    "spec_hash": "cache",
})
