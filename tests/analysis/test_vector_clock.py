"""Tests for vector clocks and the reference snapshot consistency test."""

from __future__ import annotations

from repro.analysis.vector_clock import (
    VCDelta,
    VectorClock,
    concurrent,
    happened_before,
)

from tests.analysis._dense_reference import snapshot_consistent


def test_tick_advances_own_component():
    vc = VectorClock(1, 3)
    vc.tick()
    vc.tick()
    assert vc.snapshot() == (0, 2, 0)


def test_merge_componentwise_max():
    vc = VectorClock(0, 3)
    vc.tick()
    vc.merge((0, 5, 2))
    assert vc.snapshot() == (1, 5, 2)


def test_stamps_are_whole_clocks_and_merge_in_either_form():
    vc = VectorClock(0, 3)
    vc.tick()
    assert vc.stamp_for(2) == (1, 0, 0)
    vc.merge_stamp(VCDelta(((2, 4), (0, 0))))
    vc.merge_stamp((0, 3, 1))
    assert vc.snapshot() == (1, 3, 4)


def test_happened_before_basic():
    assert happened_before((1, 0), (2, 0))
    assert happened_before((1, 0), (1, 1))
    assert not happened_before((2, 0), (1, 0))
    assert not happened_before((1, 0), (1, 0))


def test_concurrent_detection():
    assert concurrent((1, 0), (0, 1))
    assert not concurrent((1, 0), (2, 0))
    assert not concurrent((1, 1), (1, 1))


def test_message_transfer_creates_ordering():
    """Send at A then receive at B makes A's event precede B's clock."""
    a, b = VectorClock(0, 2), VectorClock(1, 2)
    a.tick()                    # send event
    stamp = a.snapshot()
    b.merge(stamp)
    b.tick()                    # receive event
    assert happened_before(stamp, b.snapshot())


def test_snapshot_consistent_accepts_concurrent_cuts():
    snaps = [(0, (3, 1)), (1, (1, 4))]
    assert snapshot_consistent(snaps)


def test_snapshot_consistent_rejects_orphan():
    """P1's snapshot knows 5 events of P0, but P0's own snapshot has 3."""
    snaps = [(0, (3, 0)), (1, (5, 4))]
    assert not snapshot_consistent(snaps)


def test_snapshot_consistent_identical_clocks():
    snaps = [(0, (2, 2)), (1, (2, 2))]
    assert snapshot_consistent(snaps)


def test_snapshot_consistent_three_way():
    good = [(0, (1, 0, 0)), (1, (1, 2, 0)), (2, (0, 0, 1))]
    assert snapshot_consistent(good)
    bad = [(0, (1, 0, 0)), (1, (1, 2, 0)), (2, (2, 0, 1))]
    assert not snapshot_consistent(bad)
