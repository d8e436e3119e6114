"""repro.service: the always-on campaign service.

The campaign engine (:mod:`repro.campaign`) is a batch tool: expand a
grid, fan it out, write a JSONL store, exit. This package promotes it to
a long-running, deduplicating service — ROADMAP item 5's "heavy
traffic" path:

* :class:`ResultDB` — an SQLite result store speaking the exact
  :class:`~repro.campaign.store.PointRecord` schema of the JSONL
  :class:`~repro.campaign.store.ResultStore`, with indexed queries and
  two-way JSONL import/export so existing campaign stores migrate in.
* :class:`ResultCache` — a global content-addressed cache over any
  store: submitting a grid first partitions its points into cache hits
  (served immediately, no simulation) and misses (queued).
* :class:`JobManager` — an async submission queue over a single shared
  worker pool: per-job streaming progress with ETA, cancellation, and
  crash-durable job state — a killed service resumes queued and
  in-progress jobs on restart via :mod:`repro.snapshot`.
* :func:`serve` / :class:`ServiceClient` — a stdlib HTTP front end
  (``repro-sim serve``) with submit/status/results/metrics endpoints
  and a live dashboard, plus the client ``repro-sim submit`` uses.

Quick use::

    from repro.campaign import preset_spec
    from repro.service import CampaignService

    with CampaignService("service-data") as svc:
        job = svc.submit(preset_spec("smoke"))
        report = svc.wait(job.job_id)
        print(report.merged_metrics().snapshot())
        # resubmitting is free: every point is a cache hit
        again = svc.submit(preset_spec("smoke"))
        assert svc.wait(again.job_id).executed == 0
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CachePartition": "cache",
    "CampaignRequestHandler": "server",
    "CampaignService": "jobs",
    "Job": "jobs",
    "JobManager": "jobs",
    "ResultCache": "cache",
    "ResultDB": "db",
    "ServiceClient": "client",
    "ServiceError": "client",
    "make_server": "server",
    "serve": "server",
})
