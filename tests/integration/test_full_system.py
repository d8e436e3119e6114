"""Integration tests: every protocol, full simulation, every checker.

These are the repository's acceptance tests: for each protocol and
several seeds/rates, a complete run must produce (a) consistent
recovery lines by both independent checkers, (b) minimal participant
sets for the min-process protocols, and (c) clean terminal state.
"""

from __future__ import annotations

import pytest

from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.campaign import RunPoint, build_point_runtime
from repro.analysis.minimality import check_minimality
from repro.checkpointing.chandy_lamport import ChandyLamportProtocol
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.weights import ONE
from tests.conftest import run_experiment

ALL_PROTOCOLS = {
    "mutable": MutableCheckpointProtocol,
    "koo-toueg": KooTouegProtocol,
    "elnozahy": ElnozahyProtocol,
    "chandy-lamport": ChandyLamportProtocol,
}

MIN_PROCESS = ("mutable", "koo-toueg")


@pytest.mark.parametrize("name", sorted(ALL_PROTOCOLS))
@pytest.mark.parametrize("seed", [13, 14])
def test_recovery_line_consistent(name, seed):
    system, result = run_experiment(
        ALL_PROTOCOLS[name](), seed=seed, initiations=5, mean_send_interval=40.0
    )
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    assert result.n_initiations == 4


@pytest.mark.parametrize("name", MIN_PROCESS)
def test_min_process_protocols_are_minimal(name):
    system, _ = run_experiment(
        ALL_PROTOCOLS[name](), seed=17, initiations=5, mean_send_interval=60.0
    )
    for report in check_minimality(system.sim.trace):
        assert report.minimal, f"{name}: {report}"


@pytest.mark.parametrize("name", sorted(ALL_PROTOCOLS))
def test_no_protocol_state_leaks_after_quiescence(name):
    system, _ = run_experiment(
        ALL_PROTOCOLS[name](), seed=19, initiations=4, mean_send_interval=30.0
    )
    for pid, proc in system.protocol.processes.items():
        if hasattr(proc, "cp_state"):
            assert not proc.cp_state, f"{name}: p{pid} stuck in cp_state"
        if hasattr(proc, "mutables"):
            assert not proc.mutables, f"{name}: p{pid} leaked mutables"
        if hasattr(proc, "pending_tentative"):
            assert not proc.pending_tentative, f"{name}: p{pid} leaked tentatives"
    for process in system.processes.values():
        assert not process.blocked, f"{name}: p{process.pid} still blocked"
        assert len(process.local_store) == 0


@pytest.mark.parametrize("name", sorted(ALL_PROTOCOLS))
def test_all_sent_messages_eventually_delivered(name):
    system, _ = run_experiment(
        ALL_PROTOCOLS[name](), seed=23, initiations=3, mean_send_interval=20.0
    )
    sends = {r["msg_id"] for r in system.sim.trace.where("comp_send")}
    recvs = {r["msg_id"] for r in system.sim.trace.where("comp_recv")}
    assert recvs <= sends
    # at quiescence nothing is in flight
    assert sends == recvs


def test_mutable_under_mobility_stays_consistent():
    """Checkpointing while hosts move between cells (proof Case 2)."""
    from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
    from repro.core.runner import ExperimentRunner
    from repro.core.system import MobileSystem
    from repro.net.mobility import RandomWalkMobility
    from repro.workload.point_to_point import PointToPointWorkload

    config = SystemConfig(n_processes=8, n_mss=3, seed=31)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(20.0))
    mobility = RandomWalkMobility(system.network, system.streams, mean_residence_time=120.0)
    mobility.start()
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=5, warmup_initiations=1)
    )
    result = runner.run(max_events=5_000_000)
    mobility.stop()
    system.run_until_quiescent()
    assert mobility.moves > 0
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    assert result.n_initiations == 4


def test_mutable_multi_cell_topology_consistent():
    system, result = run_experiment(
        MutableCheckpointProtocol(),
        seed=37,
        initiations=5,
        mean_send_interval=30.0,
        n_mss=4,
    )
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert_line_consistent(system.sim.trace, line)
    # cross-cell traffic actually happened
    assert system.metrics.value("net.wired.routed") > 0


def test_deterministic_full_run():
    """Bit-for-bit reproducibility of an entire simulation."""

    def fingerprint():
        system, result = run_experiment(
            MutableCheckpointProtocol(), seed=41, initiations=4
        )
        return (
            result.sim_time,
            result.wall_events,
            tuple(s.tentative_count for s in result.initiations),
            len(system.sim.trace),
        )

    assert fingerprint() == fingerprint()


def test_weight_ledger_clean_across_many_initiations():
    protocol = MutableCheckpointProtocol(track_weights=True)
    system, result = run_experiment(protocol, seed=43, initiations=6)
    assert not protocol.ledger.active
    assert result.n_initiations == 5


def test_a_256p_ledger_is_exactly_one_at_every_commit():
    """Dyadic int weights keep Lemma 2 exact at scale: with the ledger on,
    the books sum to exactly 1 at every wave record of a 256p run, each
    commit finds all of it back at the initiator, and the deepest share
    is finer than a float's 53-bit mantissa could hold."""
    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", protocol_params={"track_weights": True},
        system_params={"n_processes": 256},
        workload_params={"mean_send_interval": 5.0},
        run_params={"max_initiations": 3}, seed=11,
    ))
    ledger = system.protocol.ledger
    commits, deepest = [], []

    def observe(now, kind, fields):
        if ledger.active:
            assert ledger.total() == ONE
        if kind == "commit":
            initiator = fields["trigger"].pid
            commits.append(initiator)
            assert ledger.at_process[initiator] == ONE
            deepest.append(system.protocol.processes[initiator].weight_exp)

    system.protocol.observers.append(observe)
    runner.run()
    assert len(commits) == 3
    assert max(deepest) > 53
