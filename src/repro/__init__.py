"""repro — reproduction of Cao & Singhal, "Mutable Checkpoints: A New
Checkpointing Approach for Mobile Computing Systems".

Quick start::

    from repro import (
        MobileSystem, SystemConfig, RunConfig,
        PointToPointWorkloadConfig, ExperimentRunner,
    )
    from repro.checkpointing import MutableCheckpointProtocol
    from repro.workload import PointToPointWorkload

    config = SystemConfig(n_processes=16, seed=1)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(10.0))
    result = ExperimentRunner(system, workload, RunConfig(max_initiations=5)).run()
    print(result.tentative_summary(), result.redundant_mutable_summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AppProcess": "core",
    "ExperimentRunner": "core",
    "GroupWorkloadConfig": "core",
    "MobileSystem": "core",
    "PointToPointWorkloadConfig": "core",
    "ReproError": "errors",
    "RunConfig": "core",
    "RunResult": "core",
    "SystemConfig": "core",
})
__all__.append("__version__")
