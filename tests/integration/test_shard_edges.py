"""Cross-shard edge cases: handoffs, broadcasts, snapshot/resume.

The three scenarios that stress the shard boundary (PR-10 satellite):

* a handoff moving an MH between cells owned by *different shards*
  while checkpoint waves are in flight — the MH (and its process)
  re-homes to the destination shard, and MSS→MSS forwarding crosses
  the boundary;
* a broadcast fanning out from one process to every shard at once;
* snapshotting a sharded run mid-flight and resuming it, landing
  bit-identical to the *sequential* control run.
"""

from __future__ import annotations

import hashlib
import json

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.net.mobility import handoff
from repro.snapshot import SnapshotPolicy, SnapshotStore, Snapshotter, resume_run
from repro.workload.point_to_point import PointToPointWorkload


def _build(shards, *, n_mss, n_processes, seed, trace_messages,
           mean_send_interval=10.0, max_initiations=3):
    config = SystemConfig(
        n_processes=n_processes,
        n_mss=n_mss,
        seed=seed,
        trace_messages=trace_messages,
        shards=shards,
    )
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=mean_send_interval)
    )
    runner = ExperimentRunner(
        system, workload,
        RunConfig(max_initiations=max_initiations, warmup_initiations=1),
    )
    return system, runner


def _signature(system, result):
    return (
        system.sim.trace.content_hash(),
        hashlib.sha256(
            json.dumps(result.metrics, sort_keys=True).encode()
        ).hexdigest(),
        result.wall_events,
        result.sim_time,
        {pid: p.capture_channels() for pid, p in system.processes.items()},
    )


class _PingPong:
    """Deterministically bounce one MH between the two cells."""

    def __init__(self, system):
        self.system = system
        self.mh = system.mhs[0]

    def move(self, _step):
        mss_list = self.system.mss_list
        if self.mh.disconnected or self.mh.mss is None:
            return
        target = mss_list[1] if self.mh.mss is mss_list[0] else mss_list[0]
        handoff(self.system.network, self.mh, target)


def _run_with_handoffs(shards):
    system, runner = _build(
        shards, n_mss=2, n_processes=8, seed=5, trace_messages=True
    )
    mover = _PingPong(system)
    for step, when in enumerate((40.0, 300.0, 700.0)):
        system.sim.schedule_at(when, mover.move, step)
    result = runner.run(max_events=10_000_000)
    return system, result


def test_handoff_across_shard_boundary_bit_identical():
    """mh0 ping-pongs between shard-0 and shard-1 cells mid-run; the
    sharded run still reproduces the sequential control exactly."""
    control = _run_with_handoffs(1)
    sharded = _run_with_handoffs(2)
    assert _signature(*sharded) == _signature(*control)
    system, result = sharded
    completes = [r for r in system.sim.trace if r.kind == "handoff_complete"]
    assert len(completes) == 3
    # The two cells belong to different shards, so the forwarded wave
    # traffic really crossed the boundary.
    assert system.shard_plan.mss_shard == {"mss0": 0, "mss1": 1}
    assert result.shard_stats["envelopes"] > 0


def test_handoff_rehomes_mh_to_destination_shard():
    """Shard membership follows the serving cell: after reattaching,
    the MH (and the process on it) belongs to the new cell's shard."""
    system, _ = _build(
        2, n_mss=2, n_processes=4, seed=9, trace_messages=False
    )
    mh = system.mhs[0]
    pid = next(
        pid for pid, p in system.processes.items() if p.host is mh
    )
    plan = system.shard_plan
    assert plan.mss_shard[mh.mss.name] == 0
    assert plan.mss_shard[system.processes[pid].host.mss.name] == 0
    handoff(system.network, mh, system.mss_list[1])
    system.sim.run(until=system.sim.now + 1.0)
    assert mh.mss is system.mss_list[1]
    assert plan.mss_shard[mh.mss.name] == 1
    assert plan.mss_shard[system.processes[pid].host.mss.name] == 1


def test_broadcast_fans_out_to_every_shard():
    """A commit broadcast from one initiator reaches processes homed on
    all four shards; the report shows traffic into every shard, and the
    run is still bit-identical to sequential."""
    control_system, control_runner = _build(
        1, n_mss=4, n_processes=16, seed=13, trace_messages=True
    )
    control_result = control_runner.run(max_events=10_000_000)
    system, runner = _build(
        4, n_mss=4, n_processes=16, seed=13, trace_messages=True
    )
    result = runner.run(max_events=10_000_000)
    assert _signature(system, result) == _signature(
        control_system, control_result
    )
    assert result.counters.get("broadcasts", 0) > 0
    into = [s["envelopes"] for s in result.shard_stats["per_shard"]]
    assert len(into) == 4 and all(count > 0 for count in into)
    # per-destination counts agree with the aggregate
    assert sum(into) == result.shard_stats["envelopes"]


def test_sharded_snapshot_resume_matches_sequential_control(tmp_path):
    """Snapshot a sharded run mid-flight, resume from disk, and land on
    the sequential control's exact signature — the windowed kernel
    pickles and resumes like the fused loop does."""
    control_system, control_runner = _build(
        1, n_mss=4, n_processes=16, seed=7, trace_messages=False,
        mean_send_interval=15.0, max_initiations=4,
    )
    control_sig = _signature(
        control_system, control_runner.run(max_events=10_000_000)
    )

    directory = str(tmp_path / "snaps")
    system, runner = _build(
        2, n_mss=4, n_processes=16, seed=7, trace_messages=False,
        mean_send_interval=15.0, max_initiations=4,
    )
    snap = Snapshotter(runner, SnapshotPolicy(every_events=2000), directory)
    snap.install()
    uninterrupted_sig = _signature(system, runner.run(max_events=10_000_000))
    assert uninterrupted_sig == control_sig

    infos = SnapshotStore(directory).list()
    assert infos
    image = resume_run(infos[len(infos) // 2].path)
    assert type(image.system.sim).__name__ == "ShardedSimulator"
    result = image.runner.resume(max_events=10_000_000)
    assert _signature(image.system, result) == control_sig
