"""Tests for the explore invariant suite (synthetic traces + selection)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.explore.invariants import (
    DEFAULT_INVARIANTS,
    CoordinationTermination,
    FifoChannelOrder,
    IncarnationHygiene,
    NoAvalanche,
    Violation,
    build_invariants,
    check_invariants,
)
from repro.sim.trace import TraceLog


def make_trace(records):
    trace = TraceLog()
    for time, kind, fields in records:
        trace.record(time, kind, **fields)
    return trace


# -- selection / plumbing ------------------------------------------------


def test_build_invariants_default_is_full_suite():
    assert build_invariants() is DEFAULT_INVARIANTS


def test_build_invariants_by_name():
    suite = build_invariants(["no-avalanche", "fifo-channel-order"])
    assert [inv.name for inv in suite] == ["no-avalanche", "fifo-channel-order"]


def test_build_invariants_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        build_invariants(["not-an-invariant"])


def test_violation_to_dict_is_json_safe():
    violation = Violation(
        "x", "msg", details={"trigger": (0, 1), "ids": {3, 1}}
    )
    json.dumps(violation.to_dict())  # must not raise


# -- NoAvalanche ---------------------------------------------------------


def test_no_avalanche_accepts_one_checkpoint_per_trigger():
    trace = make_trace(
        [
            (1.0, "tentative", {"pid": 0, "trigger": (0, 1), "ckpt_id": 10}),
            (1.1, "tentative", {"pid": 1, "trigger": (0, 1), "ckpt_id": 11}),
        ]
    )
    assert NoAvalanche().check(trace) == []


def test_no_avalanche_flags_double_checkpoint():
    trace = make_trace(
        [
            (1.0, "tentative", {"pid": 1, "trigger": (0, 1), "ckpt_id": 10}),
            (1.5, "tentative", {"pid": 1, "trigger": (0, 1), "ckpt_id": 12}),
        ]
    )
    violations = NoAvalanche().check(trace)
    assert len(violations) == 1
    assert violations[0].details["pid"] == 1


def test_no_avalanche_untriggered_checkpoint_policy():
    trace = make_trace([(1.0, "tentative", {"pid": 2, "trigger": None, "ckpt_id": 9})])
    (violation,) = NoAvalanche().check(trace)
    assert violation.details == {"pid": 2, "ckpt_id": 9}


# -- FifoChannelOrder ----------------------------------------------------


def test_fifo_order_clean():
    trace = make_trace(
        [
            (1.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 100}),
            (1.1, "comp_send", {"src": 0, "dst": 1, "msg_id": 101}),
            (1.2, "comp_recv", {"src": 0, "dst": 1, "msg_id": 100}),
            (1.3, "comp_recv", {"src": 0, "dst": 1, "msg_id": 101}),
        ]
    )
    assert FifoChannelOrder().check(trace) == []


def test_fifo_order_violation_detected():
    trace = make_trace(
        [
            (1.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 100}),
            (1.1, "comp_send", {"src": 0, "dst": 1, "msg_id": 101}),
            (1.2, "comp_recv", {"src": 0, "dst": 1, "msg_id": 101}),
            (1.3, "comp_recv", {"src": 0, "dst": 1, "msg_id": 100}),
        ]
    )
    violations = FifoChannelOrder().check(trace)
    assert len(violations) == 1
    assert violations[0].details["msg_id"] == 100


def test_fifo_order_ignores_rerouted_hosts():
    trace = make_trace(
        [
            (0.5, "handoff_start", {"mh": "mh1", "src": "mss0", "dst": "mss1"}),
            (1.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 100}),
            (1.1, "comp_send", {"src": 0, "dst": 1, "msg_id": 101}),
            (1.2, "comp_recv", {"src": 0, "dst": 1, "msg_id": 101}),
            (1.3, "comp_recv", {"src": 0, "dst": 1, "msg_id": 100}),
        ]
    )
    assert FifoChannelOrder().check(trace) == []


# -- CoordinationTermination ---------------------------------------------


def test_termination_flags_unresolved_initiation():
    trace = make_trace([(1.0, "initiation", {"pid": 0, "trigger": (0, 1)})])
    violations = CoordinationTermination().check(trace)
    assert len(violations) == 1


@pytest.mark.parametrize("resolution", ["commit", "abort", "partial_commit"])
def test_termination_accepts_each_resolution(resolution):
    trace = make_trace(
        [
            (1.0, "initiation", {"pid": 0, "trigger": (0, 1)}),
            (2.0, resolution, {"trigger": (0, 1)}),
        ]
    )
    assert CoordinationTermination().check(trace) == []


# -- IncarnationHygiene --------------------------------------------------


def test_incarnation_must_grow():
    trace = make_trace(
        [
            (1.0, "rolled_back", {"pid": 0, "ckpt_id": 1, "incarnation": 2}),
            (2.0, "rolled_back", {"pid": 0, "ckpt_id": 1, "incarnation": 2}),
        ]
    )
    violations = IncarnationHygiene().check(trace)
    assert len(violations) == 1
    assert "incarnation" in violations[0].message


def test_ghost_receive_after_rollback_detected():
    trace = make_trace(
        [
            (0.0, "permanent", {"pid": 0, "trigger": None, "ckpt_id": 1}),
            # the doomed send happens after the restored checkpoint
            (1.0, "comp_send", {"src": 0, "dst": 1, "msg_id": 50}),
            (2.0, "rolled_back", {"pid": 0, "ckpt_id": 1, "incarnation": 1}),
            (2.1, "rolled_back", {"pid": 1, "ckpt_id": 2, "incarnation": 1}),
            # ...yet the receiver accepts it after its own rollback
            (3.0, "comp_recv", {"src": 0, "dst": 1, "msg_id": 50}),
        ]
    )
    violations = IncarnationHygiene().check(trace)
    assert len(violations) == 1
    assert violations[0].details["msg_id"] == 50


def test_ghost_check_ignores_pre_window_sends():
    trace = make_trace(
        [
            (0.5, "comp_send", {"src": 0, "dst": 1, "msg_id": 49}),
            (1.0, "permanent", {"pid": 0, "trigger": None, "ckpt_id": 1}),
            (2.0, "rolled_back", {"pid": 0, "ckpt_id": 1, "incarnation": 1}),
            (2.1, "rolled_back", {"pid": 1, "ckpt_id": 2, "incarnation": 1}),
            (3.0, "comp_recv", {"src": 0, "dst": 1, "msg_id": 49}),
        ]
    )
    # the send predates the restored checkpoint: it survives the rollback
    assert IncarnationHygiene().check(trace) == []


# -- end to end ----------------------------------------------------------


def test_clean_run_passes_full_suite():
    from repro.checkpointing.mutable import MutableCheckpointProtocol
    from repro.core.config import (
        PointToPointWorkloadConfig,
        SystemConfig,
    )
    from repro.core.system import MobileSystem
    from repro.workload.point_to_point import PointToPointWorkload

    config = SystemConfig(n_processes=5, seed=4, trace_messages=True)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(system, PointToPointWorkloadConfig(2.0))
    workload.start()
    system.sim.run(until=40.0)
    assert system.protocol.processes[0].initiate()
    system.sim.run(until=80.0)
    workload.stop()
    system.run_until_quiescent()
    assert check_invariants(system.sim.trace) == []
