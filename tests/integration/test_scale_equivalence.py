"""Channel counts against a replayed vector clock and the orphan scan.

A checkpoint records, per peer, how many computation messages its
process had sent and received (``CheckpointRecord.sent`` /
``received``); :func:`~repro.analysis.consistency.check_channel_counts`
judges a line from those alone. This matrix holds it to two witnesses
that share no code with it, on every (protocol, population, seed) cell:

* a vector clock per process (:class:`DenseVectorClock`), replayed over
  the cell's DEBUG trace — ``comp_send`` / ``comp_recv`` edges only —
  and read at each checkpoint's capture position
  (:meth:`~repro.analysis.trace_index.TraceIndex.cut`), judged by
  :func:`snapshot_consistent`;
* the trace-position orphan scan, :func:`find_orphans`.

All three must agree on the final recovery line and on 50 seeded-random
lines drawn from each pid's stored checkpoints (every checkpoint a
stable storage was handed during the run, garbage-collected or not).
The planted mutations and the unrestricted-initiation hazard must be
flagged by all three.
The run's own observables (trace hash, metrics, events, sim time) are
asserted as before, and the 16p witness run stays pinned to the golden
trace hash captured before any scaling work.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.analysis.consistency import (
    check_channel_counts,
    find_orphans,
    latest_permanent_line,
)
from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.concurrent import ConcurrencyPolicy, make_runner
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import available_protocols, build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SimulationError
from repro.explore import ExploreSpec
from repro.explore.fuzz import run_explore_once
from repro.workload.point_to_point import PointToPointWorkload

from tests.analysis._dense_reference import DenseVectorClock, snapshot_consistent

#: pre-overhaul golden for the 16p trace-off witness run (config B of
#: test_fastpath_determinism, captured on commit 2258971)
GOLDEN_16P_TRACE_HASH = (
    "792922785025ba7fd51a3cbfc9716c6bda78f8ff1e729b7cda2aca42f2d38be7"
)

POPULATIONS = (16, 64, 256)
SEEDS = (3, 11, 20260806)
RANDOM_LINES = 50


def _stored_now(system) -> list:
    """Every checkpoint the stable storages hold."""
    return [
        record
        for storage in system.all_stable_storages()
        for pid in system.processes
        for record in storage.checkpoints_of(pid)
    ]


def _keep_stored(system: MobileSystem) -> list:
    """What the stable storages hold, and from now on every checkpoint
    they are handed."""
    kept = _stored_now(system)
    for storage in system.all_stable_storages():
        def store(record, _store=storage.store):
            kept.append(record)
            _store(record)

        storage.store = store
    return kept


def _run(protocol_name: str, n: int, seed: int):
    config = SystemConfig(n_processes=n, seed=seed, checkpoint_interval=30.0)
    system = MobileSystem(config, build_protocol(protocol_name))
    kept = _keep_stored(system)
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system,
        workload,
        RunConfig(max_initiations=10_000, time_limit=120.0),
    )
    try:
        runner.run(max_events=200_000)
    except SimulationError:
        # Some (protocol, seed) cells generate event storms far past
        # any practical budget; the witnesses judge the prefix that ran.
        pass
    return system, kept


def _observables(system):
    system.sim.flush_metrics()
    return {
        "trace_hash": system.sim.trace.content_hash(),
        "metrics_sha256": hashlib.sha256(
            json.dumps(system.metrics.snapshot(), sort_keys=True).encode()
        ).hexdigest(),
        "events": system.sim.events_processed,
        "sim_time": system.sim.now,
    }


def _clocks_at(index: TraceIndex, n: int, records):
    """ckpt_id -> its process's replayed clock at the capture position."""
    position = index.captures.position
    events = {}
    for message in index.messages.by_id.values():
        if message.send is not None:
            events[message.send] = ("send", message)
        if message.recv is not None:
            events[message.recv] = ("recv", message)
    for record in records:
        events[position[record.ckpt_id]] = ("capture", record)
    clocks = [DenseVectorClock(pid, n) for pid in range(n)]
    stamps, read = {}, {}
    for _, (kind, item) in sorted(events.items()):
        if kind == "send":
            clocks[item.src].tick()
            stamps[item.msg_id] = clocks[item.src].snapshot()
        elif kind == "recv":
            clocks[item.dst].merge(stamps[item.msg_id])
            clocks[item.dst].tick()
        else:
            read[item.ckpt_id] = clocks[item.pid].snapshot()
    return read


def _verdicts(system, lines):
    """(counts, clock, orphan scan) verdict per line; all must agree."""
    index = TraceIndex(system.sim.trace)
    records = {r.ckpt_id: r for line in lines for r in line.values()}.values()
    clock_at = _clocks_at(index, system.config.n_processes, records)
    verdicts = []
    for line in lines:
        counts = check_channel_counts(line)
        clock = snapshot_consistent(
            (pid, clock_at[record.ckpt_id]) for pid, record in line.items()
        )
        scan = not find_orphans(index, line)
        assert counts == clock == scan, (counts, clock, scan, line)
        verdicts.append(counts)
    return verdicts


def _lines(system, stored: list, seed_text: str):
    """The recovery line, then random lines of the ``stored`` checkpoints
    the trace captured: alternately one drawn per pid at random (nearly
    always orphaned) and each pid's newest one captured before a random
    trace position (often consistent)."""
    captured = TraceIndex(system.sim.trace).captures.position
    by_pid = {pid: [] for pid in system.processes}
    for record in {r.ckpt_id: r for r in stored}.values():
        if record.ckpt_id in captured:
            by_pid[record.pid].append((captured[record.ckpt_id], record))
    for records in by_pid.values():
        records.sort(key=lambda item: item[0])
    rng = random.Random(seed_text)
    lines = [latest_permanent_line(system.all_stable_storages(), system.processes)]
    for i in range(RANDOM_LINES):
        if i % 2:
            line = {pid: rng.choice(records)[1] for pid, records in by_pid.items()}
        else:
            cut = rng.randrange(len(system.sim.trace))
            line = {}
            for pid, records in by_pid.items():
                before = [record for position, record in records if position <= cut]
                line[pid] = before[-1] if before else records[0][1]
        lines.append(line)
    return lines


# The cell test keeps its name from the matrix it replaced, so each
# cell's history lines up; what it compares now is described above.
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", POPULATIONS)
@pytest.mark.parametrize("protocol_name", available_protocols())
def test_delta_mode_matches_full_reference(protocol_name, n, seed):
    system, stored = _run(protocol_name, n, seed)
    observables = _observables(system)
    assert observables == _observables(_run(protocol_name, n, seed)[0])
    _verdicts(system, _lines(system, stored, f"{protocol_name}-{n}-{seed}"))


def _mutated(mutation: str, seed_index: int):
    point = ExploreSpec(name="quick", mutation=mutation).expand()[seed_index]
    system = run_explore_once(point).system
    return system, _stored_now(system)


def _unrestricted(seed: int):
    """The §3.5 hazard's run (``concurrent_initiation_hazard``)."""
    system = MobileSystem(
        SystemConfig(n_processes=16, seed=seed, checkpoint_interval=60.0),
        MutableCheckpointProtocol(),
    )
    kept = _keep_stored(system)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(10.0))
    make_runner(
        system, workload, RunConfig(max_initiations=10, warmup_initiations=1),
        ConcurrencyPolicy.UNRESTRICTED,
    ).run(max_events=5_000_000)
    return system, kept


ORPHANED = {
    "skip-mutable-16": lambda: _mutated("skip-mutable", 16),
    "forget-sent-7": lambda: _mutated("forget-sent", 7),
    **{f"unrestricted-{s}": (lambda s=s: _unrestricted(s)) for s in range(4)},
}


@pytest.mark.parametrize("case", sorted(ORPHANED))
def test_orphaned_recovery_lines_fail_every_witness(case):
    system, stored = ORPHANED[case]()
    assert _verdicts(system, _lines(system, stored, case))[0] is False


def test_16p_witness_matches_pr5_golden():
    """The run reproduces the pre-overhaul golden hash."""
    config = SystemConfig(n_processes=16, seed=7, trace_messages=False)
    system = MobileSystem(config, build_protocol("mutable"))
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    runner.run(max_events=10_000_000)
    assert system.sim.trace.content_hash() == GOLDEN_16P_TRACE_HASH
