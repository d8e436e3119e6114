"""The sparse ``IntVector`` / ``VectorClock`` against the dense ones.

``_dense_reference.py`` holds the array-backed classes as they were.
Hypothesis drives one of each through the same operation sequence; after
every operation they must show the same stamps, snapshots, ``tolist()``,
bookkeeping and pickled state. Sequences that stay sparse to the end,
that go dense on the first operation and that go dense half-way are all
in the generated set, and each is also pinned by a hand-written case.
The clock is compared with the reference's delta mode, the one stamping
rule it has; an image of a full-stamp clock (``_delta: False``, written
while that mode existed) must load as one whose every channel owes a
full stamp.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.vector_clock import PackedInts, VCDelta, VectorClock
from repro.checkpointing.state import IntVector

from tests.analysis._dense_reference import DenseIntVector, DenseVectorClock

SIZES = (3, 16, 300)


# -- the clock --------------------------------------------------------------------

def clock_ops(n: int):
    index = st.integers(0, n - 1)
    value = st.integers(0, 40)
    pairs = st.lists(st.tuples(index, value), max_size=n).map(tuple)
    full = st.lists(value, min_size=n, max_size=n)
    return st.lists(
        st.one_of(
            st.tuples(st.just("tick")),
            st.tuples(st.just("merge_delta"), pairs),
            st.tuples(st.just("merge_tuple"), full.map(tuple)),
            st.tuples(st.just("merge_array"), full),
            st.tuples(st.just("stamp_for"), index),
            st.tuples(st.just("restore"), full.map(tuple)),
            st.tuples(st.just("full_stamp_image")),
            st.tuples(st.just("deepcopy")),
            st.tuples(st.just("pickle"), st.sampled_from([2, pickle.HIGHEST_PROTOCOL])),
            st.tuples(st.just("read_clock")),
        ),
        max_size=30,
    )


def plain(stamp):
    """A stamp as comparable data: the pairs of a delta, or ``("full",
    ints)`` for an array stamp (which must be a copy, not the clock)."""
    if type(stamp) is VCDelta:
        assert all(type(v) is int for pair in stamp.pairs for v in pair)
        return stamp.pairs
    assert type(stamp) is np.ndarray and stamp.dtype == np.int64
    return ("full", stamp.tolist())


def state_of(vc):
    _, slots = vc.__getstate__()
    slots = dict(slots)
    slots.pop("_delta", None)  # the reference's mode flag
    slots["_changed"] = list(slots["_changed"].items())  # change order counts
    return slots


def full_stamp_image(vc):
    """``vc`` saved as a full-stamp clock and loaded again. The dense
    reference, a delta-mode clock, loads as itself and then invalidates
    every channel, which is what loading such an image must amount to."""
    if type(vc) is DenseVectorClock:
        vc = pickle.loads(pickle.dumps(vc))
        vc.reset_deltas()
        return vc
    _, slots = vc.__getstate__()
    clone = VectorClock.__new__(VectorClock)
    clone.__setstate__((None, dict(slots, _delta=False)))
    return clone


def apply(vc, op):
    name, args = op[0], op[1:]
    if name == "tick":
        vc.tick()
    elif name == "merge_delta":
        vc.merge_stamp(VCDelta(args[0]))
    elif name == "merge_tuple":
        vc.merge_stamp(args[0])
    elif name == "merge_array":
        vc.merge_stamp(np.array(args[0], dtype=np.int64))
    elif name == "stamp_for":
        stamp = vc.stamp_for(args[0])
        if type(stamp) is np.ndarray:
            stamp[0] += 1  # a copy: the clock must not see this
            stamp[0] -= 1
        return vc, plain(stamp)
    elif name == "restore":
        vc.restore(args[0])
    elif name == "full_stamp_image":
        vc = full_stamp_image(vc)
    elif name == "deepcopy":
        vc = copy.deepcopy(vc)
    elif name == "pickle":
        vc = pickle.loads(pickle.dumps(vc, protocol=args[0]))
    elif name == "read_clock":
        return vc, vc.clock.tolist()
    return vc, None


def run_lockstep(n, pid, ops):
    sparse, dense = VectorClock(pid, n), DenseVectorClock(pid, n, delta=True)
    assert sparse._array is None and not sparse._cells
    for op in ops:
        sparse, seen = apply(sparse, op)
        dense, expected = apply(dense, op)
        assert seen == expected, op
        assert sparse.snapshot() == dense.snapshot(), op
        assert state_of(sparse) == state_of(dense), op
        assert all(type(v) is int for v in sparse.snapshot())
    return sparse, dense


@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"delta-{n}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clock_matches_the_dense_reference(n, data):
    pid = data.draw(st.integers(0, n - 1))
    run_lockstep(n, pid, data.draw(clock_ops(n)))


@pytest.mark.parametrize("n", SIZES)
def test_a_delta_only_sequence_never_builds_the_array(n):
    ops = [("tick",), ("merge_delta", ((n - 1, 7),)), ("stamp_for", n - 1)] * 5
    sparse, _ = run_lockstep(n, 0, ops)
    assert sparse._array is None and dict(sparse._cells) == {0: 5, n - 1: 7}
    sparse, _ = run_lockstep(
        n, 0, ops + [("pickle", 2), ("tick",), ("deepcopy",), ("tick",)]
    )
    # two entries set: under half of 16 or 300, so the image is the
    # sparse one and the clone stays sparse; of 3 it is the whole vector
    assert (sparse._array is None) == (n > 4)
    assert type(sparse.stamp_for(n - 1)) is VCDelta


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "kind", ["merge_tuple", "merge_array", "restore", "read_clock", "stamp_for"]
)
def test_the_first_whole_vector_operation_builds_it(n, kind):
    values = [(7 * i) % 5 for i in range(n)]
    first = {
        "merge_tuple": [("merge_tuple", tuple(values))],
        "merge_array": [("merge_array", values)],
        "restore": [("restore", tuple(values))],
        "read_clock": [("read_clock",)],
        # a clock loaded from a full-stamp image answers its first send
        # with a full stamp
        "stamp_for": [("full_stamp_image",), ("stamp_for", 0)],
    }[kind]
    sparse, _ = run_lockstep(n, n - 1, first)
    assert sparse._array is not None and type(sparse._cells) is memoryview
    run_lockstep(n, n - 1, first + [("tick",), ("merge_delta", ((0, 9),)),
                                    ("stamp_for", 0), ("pickle", 2), ("tick",)])


def test_a_long_delta_is_capped_to_a_full_stamp_and_densifies():
    n = 300
    cap = max(8, n // 8)
    over = tuple((i, 3) for i in range(1, cap + 2))
    sparse, _ = run_lockstep(n, 0, [("merge_delta", over)])
    assert sparse._array is None
    sparse, _ = run_lockstep(n, 0, [("merge_delta", over), ("stamp_for", 5)])
    assert sparse._array is not None
    under = over[: cap - 1]
    sparse, _ = run_lockstep(n, 0, [("merge_delta", under), ("stamp_for", 5)])
    assert sparse._array is None


@pytest.mark.parametrize("n", SIZES)
def test_a_full_stamp_image_owes_every_channel_a_full_stamp(n):
    """An image of a full-stamp run (its receivers hold no delta base)
    loads with every channel's next stamp full, never an empty delta;
    the one after that is a delta again."""
    written = DenseVectorClock(1, n)  # delta=False: the deleted mode
    written.tick()
    written.merge([3] * n)
    clone = VectorClock.__new__(VectorClock)
    clone.__setstate__(written.__getstate__())
    assert "_delta" not in clone.__getstate__()[1]
    assert clone.snapshot() == written.snapshot() == (3,) * n
    for dst in range(n):
        stamp = clone.stamp_for(dst)
        assert type(stamp) is np.ndarray and stamp.tolist() == [3] * n
    assert clone.stamp_for(0) == VCDelta(())
    clone.tick()
    assert clone.stamp_for(0) == VCDelta(((1, 4),))


def test_a_zero_left_by_a_read_miss_is_not_written_out():
    vc = VectorClock(0, 16)
    vc.merge_delta([(3, 0), (4, 2)])  # the miss on 3 leaves a 0 entry
    assert vc._array is None and vc._cells[3] == 0
    packed = vc.__getstate__()[1]["clock"]
    assert packed == PackedInts.of(np.array(vc.snapshot(), dtype=np.int64))
    assert packed.entries() == {4: 2}


# -- the vector -------------------------------------------------------------------

def vector_ops(n: int):
    index = st.integers(0, n - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), index, st.integers(-3, 2**40)),
            st.tuples(st.just("bump"), index),
            st.tuples(st.just("get"), index),
            st.tuples(st.just("clear")),
            st.tuples(st.just("copy")),
            st.tuples(st.just("deepcopy")),
            st.tuples(st.just("pickle"), st.sampled_from([2, pickle.HIGHEST_PROTOCOL])),
        ),
        max_size=40,
    )


def apply_vector(vec, op):
    name, args = op[0], op[1:]
    if name == "set":
        vec[args[0]] = args[1]
    elif name == "bump":
        vec[args[0]] += 1
    elif name == "get":
        return vec, vec[args[0]]
    elif name == "clear":
        vec.clear()
    elif name == "copy":
        vec = vec.copy()
    elif name == "deepcopy":
        vec = copy.deepcopy(vec)
    elif name == "pickle":
        vec = pickle.loads(pickle.dumps(vec, protocol=args[0]))
    return vec, None


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vector_matches_the_dense_reference(n, data):
    start = data.draw(st.sampled_from(["size", "values"]))
    if start == "size":
        sparse, dense = IntVector(n), DenseIntVector(n)
    else:
        values = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        sparse, dense = IntVector(values), DenseIntVector(values)
    for op in data.draw(vector_ops(n)):
        sparse, seen = apply_vector(sparse, op)
        dense, expected = apply_vector(dense, op)
        assert seen == expected and type(seen) is type(expected)
        assert len(sparse) == len(dense) == n
        assert sparse.tolist() == dense.tolist() == list(sparse) == list(dense)
        assert sparse == dense.tolist() and sparse == tuple(dense.tolist())
        assert sparse == IntVector(dense.tolist())
        assert (sparse == dense.tolist()[:-1]) is False
        # the pickled image, field for field
        assert sparse.__reduce__()[1] == dense.__reduce__()[1]
        assert all(sparse._d.values()), "a stored zero"


@pytest.mark.parametrize("n", SIZES)
def test_vector_index_errors(n):
    vec = IntVector(n)
    for bad in (n, n + 5, -1):
        with pytest.raises(IndexError):
            vec[bad] = 1
        with pytest.raises(IndexError):
            vec[bad]
    with pytest.raises(IndexError):
        DenseIntVector(n)[n] = 1
    assert vec.tolist() == [0] * n and vec != IntVector(n + 1)
