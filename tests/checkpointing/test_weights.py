"""Tests for exact termination weights (Lemma 2 machinery)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.checkpointing.weights import (
    ONE,
    ZERO,
    WeightLedger,
    as_weight,
    weight_from_image,
)
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.errors import ProtocolError
from repro.scenarios.harness import ScenarioHarness


def test_as_weight_is_two_to_the_minus_k():
    assert as_weight(0) == ONE
    assert as_weight(2) == Fraction(1, 4)
    assert as_weight(200) == Fraction(1, 2**200)


def test_as_weight_rejects_out_of_range():
    with pytest.raises(ProtocolError):
        as_weight(-1)


def test_split_halves():
    """``prop_cp`` halves the held share once per request: an initiator
    with three dependencies sends 2**-1, 2**-2, 2**-3 (as 1, 2, 3) and
    keeps 2**-3; the replies bring it back to exactly 1."""
    h = ScenarioHarness(4, MutableCheckpointProtocol(track_weights=True))
    for src in (1, 2, 3):
        h.deliver(h.send(src, 0))
    h.initiate(0)
    initiator = h.processes[0]
    requests = h.pending_system("request")
    assert [f.message.fields["weight"] for f in requests] == [1, 2, 3]
    assert (initiator.weight, initiator.weight_exp) == (1, 3)
    h.deliver_all_system()
    assert h.trace.count("commit") == 1
    assert h.protocol.ledger.at_process[0] == ONE


def test_deep_splits_sum_exactly_to_one():
    """Float arithmetic would fail this far beyond 53 bits of mantissa:
    200 requests send 2**-1 .. 2**-200 and keep 2**-200."""
    pieces = [as_weight(k) for k in range(1, 201)]
    assert sum(pieces, ZERO) + as_weight(200) == ONE


def test_ledger_tracks_full_round_trip():
    ledger = WeightLedger()
    ledger.begin(0)
    ledger.check()
    ledger.move_to_request(0, 1)
    ledger.check()
    ledger.request_arrived(1, 1)
    ledger.check()
    ledger.move_to_request(1, 2)
    ledger.request_arrived(2, 2)
    ledger.check()
    ledger.move_to_reply(2, 2)
    ledger.reply_arrived(0, 2)
    ledger.move_to_reply(1, 2)
    ledger.reply_arrived(0, 2)
    ledger.check()
    assert ledger.at_process[0] == ONE
    ledger.end()


def test_ledger_rejects_overdraft():
    ledger = WeightLedger()
    ledger.begin(0)
    with pytest.raises(ProtocolError):
        ledger.move_to_request(1, 1)  # process 1 holds nothing


def test_ledger_rejects_double_begin():
    ledger = WeightLedger()
    ledger.begin(0)
    with pytest.raises(ProtocolError):
        ledger.begin(1)


def test_ledger_detects_negative_transit():
    ledger = WeightLedger()
    ledger.begin(0)
    with pytest.raises(ProtocolError):
        ledger.request_arrived(1, 1)


def test_ledger_check_fails_on_corruption():
    ledger = WeightLedger()
    ledger.begin(0)
    ledger.at_process[0] = Fraction(1, 2)  # corrupt
    with pytest.raises(ProtocolError):
        ledger.check()


def test_an_image_fraction_loads_as_its_exponent_or_stays_exact():
    """A Fraction in an image loads through ``weight_from_image`` with
    the arguments it pickled: a share 2**-k is k, another dyadic value
    stays a Fraction for its owner, and a non-dyadic one is refused."""
    assert weight_from_image(1, 8) == 3
    assert weight_from_image(1, 1) == 0
    assert weight_from_image(3, 4) == Fraction(3, 4)
    assert weight_from_image(0, 1) == ZERO
    with pytest.raises(ProtocolError, match="not dyadic"):
        weight_from_image(1, 3)
