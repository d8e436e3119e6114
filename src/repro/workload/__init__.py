"""Traffic generators driving the application layer."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BurstyWorkload": "bursty",
    "BurstyWorkloadConfig": "bursty",
    "GroupWorkload": "group",
    "PointToPointWorkload": "point_to_point",
    "Workload": "base",
})
