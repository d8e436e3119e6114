"""Tests for exact termination weights (Lemma 2 machinery)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.checkpointing.weights import ONE, ZERO, WeightLedger, as_weight, split
from repro.errors import ProtocolError


def test_as_weight_accepts_fractions_and_ints():
    assert as_weight(1) == ONE
    assert as_weight(Fraction(1, 4)) == Fraction(1, 4)


def test_as_weight_rejects_out_of_range():
    with pytest.raises(ProtocolError):
        as_weight(Fraction(3, 2))
    with pytest.raises(ProtocolError):
        as_weight(Fraction(-1, 2))


def test_split_halves():
    assert split(ONE) == Fraction(1, 2)
    assert split(Fraction(1, 4)) == Fraction(1, 8)


def test_split_rejects_zero():
    with pytest.raises(ProtocolError):
        split(ZERO)


def test_deep_splits_sum_exactly_to_one():
    """Float arithmetic would fail this far beyond 53 bits of mantissa."""
    remaining = ONE
    pieces = []
    for _ in range(200):
        piece = split(remaining)
        remaining = remaining - piece
        pieces.append(piece)
    assert sum(pieces, ZERO) + remaining == ONE


def test_ledger_tracks_full_round_trip():
    ledger = WeightLedger()
    ledger.begin(0)
    ledger.check()
    w = split(ONE)
    ledger.move_to_request(0, w)
    ledger.check()
    ledger.request_arrived(1, w)
    ledger.check()
    half = split(w)
    ledger.move_to_request(1, half)
    ledger.request_arrived(2, half)
    ledger.check()
    ledger.move_to_reply(2, half)
    ledger.reply_arrived(0, half)
    ledger.move_to_reply(1, w - half)
    ledger.reply_arrived(0, w - half)
    ledger.check()
    assert ledger.at_process[0] == ONE
    ledger.end()


def test_ledger_rejects_overdraft():
    ledger = WeightLedger()
    ledger.begin(0)
    with pytest.raises(ProtocolError):
        ledger.move_to_request(0, Fraction(3, 2))


def test_ledger_rejects_double_begin():
    ledger = WeightLedger()
    ledger.begin(0)
    with pytest.raises(ProtocolError):
        ledger.begin(1)


def test_ledger_detects_negative_transit():
    ledger = WeightLedger()
    ledger.begin(0)
    with pytest.raises(ProtocolError):
        ledger.request_arrived(1, Fraction(1, 2))


def test_ledger_check_fails_on_corruption():
    ledger = WeightLedger()
    ledger.begin(0)
    ledger.at_process[0] = Fraction(1, 2)  # corrupt
    with pytest.raises(ProtocolError):
        ledger.check()


def test_as_weight_returns_a_fraction_unchanged():
    weight = Fraction(3, 8)
    assert as_weight(weight) is weight
    assert as_weight(ONE) is ONE
