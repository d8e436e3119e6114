"""A snapshot written while termination weights were Fractions resumes.

The fixture was written by the last commit that kept Huang's weights as
``Fraction`` (b0da7db, format 2): 16p mutable with ``track_weights=True``,
seed 7, the format-1 fixture's workload, cut after 251 events — mid-wave,
with the initiator holding 3/8 and fifteen request and reply shares in
flight. Loading turns each share ``2**-k`` into ``k``, the initiator's
3/8 into the numerator 3 over ``2**3``, and the ledger's books back into
exact Fractions.
"""

from __future__ import annotations

import os
import pickle
from fractions import Fraction

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import ProtocolError
from repro.sim.events import Event
from repro.snapshot import read_meta, resume_run
from repro.snapshot.state import capture, restore
from repro.workload.point_to_point import PointToPointWorkload

from tests.snapshot.test_payload_encoding import _outcome

FIXTURE = os.path.join(
    os.path.dirname(__file__), "data",
    "format2-b0da7db-mutable-16p-seed7-weights-ev251.rsnap",
)


def _shares_in_flight(sim):
    """Weights on messages in the heap; an entry the image held as an
    Event carries its arguments on that handle."""
    return [
        arg.fields["weight"]
        for entry in sim._queue
        for arg in (entry[3].args if type(entry[3]) is Event else entry[4])
        if isinstance(getattr(arg, "fields", None), dict) and "weight" in arg.fields
    ]


def _build():
    config = SystemConfig(n_processes=16, seed=7, trace_messages=False)
    system = MobileSystem(config, MutableCheckpointProtocol(track_weights=True))
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    return system, runner


def test_fraction_weights_in_flight_resume_into_the_uninterrupted_run():
    assert read_meta(FIXTURE).events_processed == 251
    image = resume_run(FIXTURE)
    system = image.system
    (initiator,) = [
        p for p in system.protocol.processes.values() if p.initiating is not None
    ]
    assert (initiator.weight, initiator.weight_exp) == (3, 3)
    shares = _shares_in_flight(system.sim)
    assert len(shares) == 15 and all(type(k) is int and k > 0 for k in shares)
    ledger = system.protocol.ledger
    assert ledger.active and ledger.total() == 1
    assert all(type(v) is Fraction for v in ledger.at_process.values())
    resumed = _outcome(system, image.runner.resume(max_events=10_000_000))
    system, runner = _build()
    assert resumed == _outcome(system, runner.run(max_events=10_000_000))


def test_a_mid_wave_image_keeps_the_ledger_exact():
    """An image of today's code holds the ledger's books as Fractions
    too; the loader's 2**-k -> k must not leak into them."""
    system, runner = _build()
    runner.workload.start()
    runner._schedule_first_initiations()
    while system.sim.events_processed < 251:
        system.sim.step()
    ledger = system.protocol.ledger
    books = (dict(ledger.at_process), ledger.in_requests, ledger.in_replies)
    assert ledger.active and ledger.in_requests and ledger.in_replies
    image = restore(capture(runner))
    restored = image.system.protocol.ledger
    assert (restored.at_process, restored.in_requests, restored.in_replies) == books
    assert all(
        type(v) is Fraction
        for v in [*restored.at_process.values(), restored.in_requests,
                  restored.in_replies]
    )
    resumed = _outcome(image.system, image.runner.resume(max_events=10_000_000))
    system, runner = _build()
    assert resumed == _outcome(system, runner.run(max_events=10_000_000))


def test_a_weight_that_is_not_dyadic_is_refused():
    image = resume_run(FIXTURE)
    (initiator,) = [
        p for p in image.system.protocol.processes.values()
        if p.initiating is not None
    ]
    del initiator.weight_exp  # pickle it as the Fraction-era process did
    initiator.weight = Fraction(1, 3)
    with pytest.raises(ProtocolError, match="not dyadic"):
        restore(pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL))
