"""Tests for seeded named random streams."""

from __future__ import annotations

import pytest

from repro.sim.rng import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(7)
    b = RandomStreams(7)
    assert [a.stream("x").random() for _ in range(5)] == [
        b.stream("x").random() for _ in range(5)
    ]


def test_different_names_independent():
    streams = RandomStreams(7)
    xs = [streams.stream("x").random() for _ in range(5)]
    ys = [streams.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_new_consumer_does_not_perturb_existing():
    """Adding a new named stream must not change another stream's draws."""
    a = RandomStreams(7)
    first = a.stream("x").random()
    b = RandomStreams(7)
    b.stream("newcomer").random()
    assert b.stream("x").random() == first


def test_different_seeds_differ():
    assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream("x").random()


def test_exponential_positive_and_mean():
    streams = RandomStreams(42)
    draws = [streams.exponential("e", 10.0) for _ in range(5000)]
    assert all(d >= 0 for d in draws)
    mean = sum(draws) / len(draws)
    assert 9.0 < mean < 11.0


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        RandomStreams(1).exponential("e", 0.0)


def test_uniform_int_bounds():
    streams = RandomStreams(3)
    draws = [streams.uniform_int("u", 2, 5) for _ in range(200)]
    assert set(draws) <= {2, 3, 4, 5}
    assert {2, 5} <= set(draws)


def test_choice_uniformity_and_errors():
    streams = RandomStreams(3)
    options = ["a", "b", "c"]
    draws = [streams.choice("c", options) for _ in range(300)]
    assert set(draws) == set(options)
    with pytest.raises(ValueError):
        streams.choice("c", [])
