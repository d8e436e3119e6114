"""Tests for the ddmin shrinker."""

from __future__ import annotations

from repro.explore.shrink import ddmin


def test_ddmin_single_culprit():
    items = list(range(20))
    minimal, tests = ddmin(items, lambda subset: 13 in subset)
    assert minimal == [13]
    assert tests >= 1


def test_ddmin_interacting_pair():
    items = list(range(16))
    minimal, _ = ddmin(items, lambda s: 3 in s and 11 in s)
    assert sorted(minimal) == [3, 11]


def test_ddmin_empty_set_suffices():
    minimal, tests = ddmin(list(range(10)), lambda s: True)
    assert minimal == []
    assert tests == 1  # the [] probe short-circuits everything


def test_ddmin_nothing_removable():
    items = [0, 1, 2]
    minimal, _ = ddmin(items, lambda s: len(s) == 3)
    assert minimal == items


def test_ddmin_result_preserves_order():
    items = list(range(30))
    minimal, _ = ddmin(items, lambda s: {4, 17, 25} <= set(s))
    assert minimal == [4, 17, 25]


def test_ddmin_respects_budget():
    calls = []

    def expensive(subset):
        calls.append(1)
        return 7 in subset

    ddmin(list(range(64)), expensive, max_tests=5)
    assert len(calls) <= 5


def test_ddmin_1_minimality():
    """The classic guarantee: removing any single element of the result
    breaks the predicate (when the budget is not exhausted)."""
    target = {2, 9, 14}
    predicate = lambda s: target <= set(s)
    minimal, _ = ddmin(list(range(16)), predicate)
    for drop in minimal:
        assert not predicate([x for x in minimal if x != drop])
