"""Lost messages from channel counts against the trace oracle.

``SenderMessageLog`` tells the messages in transit across a line from
its checkpoints' per-channel counts, and a ``DistributedRecovery``
round counts the deliveries it undoes the same way. The oracle
(``_trace_reference.py``) answers both from the DEBUG trace instead.
Every answer must agree:

* on the recovery line and 50 seeded-random lines of stored checkpoints
  per run (the draw of ``test_scale_equivalence``), for the mutable
  protocol on five seeds and three baselines on two, each run driven
  to quiescence;
* on the lost count of each of those runs, whether the rollback runs at
  once (``rollback``) or as the message protocol (``recover``) on an
  identical run: both leave every process in the same state;
* on the recovery lines committed after a ``DistributedRecovery`` round,
  where re-sends reuse the sequence numbers the rollback undid. There
  the oracle's answer is taken less the sends the rollback undid: the
  trace holds them before every later checkpoint and cannot tell them
  from lost ones.
"""

from __future__ import annotations

import pytest

from repro.analysis.consistency import latest_permanent_line
from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.message_log import SenderMessageLog
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.recovery import DistributedRecovery
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.registry import build_protocol
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.workload.point_to_point import PointToPointWorkload

from tests.checkpointing._trace_reference import TraceMessageLog, count_lost_messages
from tests.integration.test_scale_equivalence import _keep_stored, _lines

RUNS = [("mutable", seed) for seed in (3, 5, 11, 17, 29)] + [
    (protocol, seed)
    for protocol in ("koo-toueg", "elnozahy", "chandy-lamport")
    for seed in (3, 11)
]


def _by_id(log) -> list:
    return sorted(log._log.values(), key=lambda entry: entry.msg_id)


def _quiescent_run(protocol_name, seed):
    system = MobileSystem(
        SystemConfig(n_processes=8, seed=seed, checkpoint_interval=30.0),
        build_protocol(protocol_name),
    )
    stored = _keep_stored(system)
    counts, oracle = SenderMessageLog(system), TraceMessageLog(system)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(5.0))
    ExperimentRunner(
        system, workload, RunConfig(max_initiations=10_000, time_limit=120.0)
    ).run(max_events=200_000)
    workload.stop()
    system.run_until_quiescent()
    return system, stored, counts, oracle


@pytest.mark.parametrize("protocol_name,seed", RUNS)
def test_counts_match_the_trace_on_every_line(protocol_name, seed):
    system, stored, counts, oracle = _quiescent_run(protocol_name, seed)
    lines = _lines(system, stored, f"lost-{protocol_name}-{seed}")
    lost = [counts.lost_messages(line) for line in lines]
    assert lost == [oracle.lost_messages(line) for line in lines]
    assert any(lost), "no line had a message in transit: nothing was compared"

    # The instant rollback is the message protocol at zero latency: an
    # identical run recovered over messages ends in the same state.
    twin = _quiescent_run(protocol_name, seed)[0]
    expected = count_lost_messages(TraceIndex(system.sim.trace), lines[0])
    assert count_lost_messages(TraceIndex(twin.sim.trace), lines[0]) == expected
    at_once = DistributedRecovery(system).rollback()
    over_messages = DistributedRecovery(twin).recover(seed % 8)
    twin.run_until_quiescent()
    assert over_messages.complete
    assert at_once.lost_messages == over_messages.lost_messages == expected > 0
    assert {pid: r.ckpt_id for pid, r in at_once.line.items()} == {
        pid: r.ckpt_id for pid, r in over_messages.line.items()
    } == {pid: r.ckpt_id for pid, r in lines[0].items()}
    for pid, process in system.processes.items():
        other = twin.processes[pid]
        assert process.app_state == other.app_state
        assert process.sent == other.sent
        assert process.received == other.received
        assert process.incarnation == other.incarnation == 1
        for restored in (process, other):
            assert len(restored.local_store) == 0
            assert restored.blocked is False

    assert counts.prune(lines[0]) == oracle.prune(lines[0]) > 0
    assert _by_id(counts) == _by_id(oracle)


@pytest.mark.parametrize("seed", (2, 3, 4, 5, 8))
def test_counts_match_the_trace_after_a_distributed_recovery(seed):
    system = MobileSystem(
        SystemConfig(n_processes=6, seed=seed), MutableCheckpointProtocol()
    )
    recovery = DistributedRecovery(system)
    counts, oracle = SenderMessageLog(system), TraceMessageLog(system)
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(30.0))
    workload.start()
    system.sim.run(until=75.0)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=150.0)
    # The sends the rollback undoes stay in the trace before every later
    # checkpoint, so the oracle calls one lost once its sender's line
    # checkpoint is newer than the rollback and its receiver's is not.
    # The counts know it was undone: a re-send took its number.
    restored = latest_permanent_line(system.all_stable_storages(), system.processes)
    undone = {
        msg_id
        for msg_id, entry in oracle._log.items()
        if entry.seq > restored[entry.src].sent.get(entry.dst, 0)
    }
    recovery.recover(seed % 6)
    judged = 0
    for initiator in range(6):
        system.sim.run(until=system.sim.now + 40.0)
        system.protocol.processes[initiator].initiate()
        system.sim.run(until=system.sim.now + 20.0)
        line = latest_permanent_line(system.all_stable_storages(), system.processes)
        lost = counts.lost_messages(line)
        assert lost == [e for e in oracle.lost_messages(line) if e.msg_id not in undone]
        judged += bool(lost)
    assert judged, "no line had a message in transit: nothing was compared"
    # A message the incarnation check dropped is never received, so the
    # oracle would call it lost on every later line; none arises here.
    assert system.metrics.value("stale_incarnation_dropped") == 0
    # a re-send replaced the entry its number held; some numbers were reused
    assert counts._log == {(e.src, e.dst, e.seq): e for e in _by_id(oracle)}
    assert len(counts) < len(oracle)
