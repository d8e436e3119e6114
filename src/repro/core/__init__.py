"""Public experiment API: configuration, system builder, runner."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AppProcess": "process",
    "ExperimentRunner": "runner",
    "GroupWorkloadConfig": "config",
    "MobileSystem": "system",
    "PointToPointWorkloadConfig": "config",
    "RunConfig": "config",
    "RunResult": "results",
    "RuntimeEnv": "process",
    "SystemConfig": "config",
})
