"""repro.snapshot: checkpoint/resume for the simulator itself.

The paper's subject is consistent checkpoints of a distributed
computation; this package applies the same idea to the simulation
*running* that computation. A snapshot captures the complete state of a
run — kernel event heap, protocol state machines, network buffers, RNG
streams, metrics, trace counters — into a versioned on-disk container,
and a resumed run retraces the uninterrupted run byte for byte (same
trace hash, same metrics).

Quick use::

    from repro.snapshot import SnapshotPolicy, Snapshotter, resume_run

    snap = Snapshotter(runner, SnapshotPolicy(every_events=1000), "snaps/")
    snap.install()
    result = runner.run(max_events=10_000_000)

    # ... later, possibly in another process, after a crash:
    image = resume_run("snaps/snap-00004-ev000004000.rsnap")
    result = image.runner.resume(max_events=10_000_000)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ReplayedWindow": "timetravel",
    "nearest_snapshot": "timetravel",
    "replay_window": "timetravel",
    "FORMAT_VERSION": "format",
    "SNAPSHOT_SUFFIX": "format",
    "SnapshotMeta": "format",
    "SnapshotPolicy": "policy",
    "SnapshotInfo": "snapshotter",
    "SnapshotStore": "snapshotter",
    "Snapshotter": "snapshotter",
    "SimulationImage": "state",
    "capture": "state",
    "restore": "state",
    "read_meta": "format",
    "read_snapshot": "format",
    "write_snapshot": "format",
    "resume_run": "snapshotter",
})
