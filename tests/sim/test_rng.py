"""Tests for seeded named random streams."""

from __future__ import annotations

import pickle

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


def test_one_shot_draws_what_the_stream_would_and_is_not_kept():
    kept, spent = RandomStreams(7), RandomStreams(7)
    rng = spent.one_shot("runner.stagger.3")
    assert [rng.uniform(0.0, 900.0) for _ in range(3)] == [
        kept.stream("runner.stagger.3").uniform(0.0, 900.0) for _ in range(3)
    ]
    assert spent._streams == {"runner.stagger.3": None}
    assert len(pickle.dumps(spent)) < 200 < 2500 < len(pickle.dumps(kept))


def test_a_used_up_one_shot_is_never_restarted():
    streams = RandomStreams(7)
    streams.one_shot("once")
    with pytest.raises(ValueError, match="once"):
        streams.one_shot("once")
    with pytest.raises(ValueError, match="once"):
        streams.stream("once")
    with pytest.raises(ValueError, match="once"):
        streams.exponential("once", 1.0)
    streams.stream("kept")
    with pytest.raises(ValueError, match="kept"):
        streams.one_shot("kept")  # would fork a live sequence
    restored = pickle.loads(pickle.dumps(streams))
    with pytest.raises(ValueError, match="once"):
        restored.stream("once")


def test_the_first_initiations_do_not_keep_their_streams():
    from repro.campaign import RunPoint, build_point_runtime

    system, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", workload_params={"mean_send_interval": 1.0},
        system_params={"n_processes": 8, "trace_messages": False},
        run_params={"max_initiations": 2}, seed=11,
    ))
    runner.run()
    stagger = {
        name: rng for name, rng in system.streams._streams.items()
        if name.startswith("runner.stagger.")
    }
    assert len(stagger) == 8 and set(stagger.values()) == {None}
    # an image cut before this holds them as live streams: it is still a
    # RandomStreams that unpickles and serves every name it has
    old_shape = RandomStreams(system.streams.seed)
    expected = [old_shape.stream(name).getstate() for name in stagger]
    old_shape = pickle.loads(pickle.dumps(old_shape))
    assert [old_shape.stream(name).getstate() for name in stagger] == expected


@pytest.mark.parametrize("master", [0, 11, 2**40 + 3])
def test_a_derived_stream_is_random_random_of_its_seed(master):
    """``_derive`` seeds through C directly; the state is the one
    ``random.Random(seed)`` builds, draws and ``gauss_next`` included."""
    import hashlib
    import random

    streams = RandomStreams(master)
    for i in range(200):
        name = f"workload.p{i}"
        digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
        reference = random.Random(int.from_bytes(digest[:8], "big"))
        stream = streams.stream(name)
        assert stream.getstate() == reference.getstate()
        assert stream.gauss(0, 1) == reference.gauss(0, 1)
