"""The sparse ``IntVector`` against the dense one.

``_dense_reference.py`` holds the array-backed class as it was.
Hypothesis drives one of each through the same operation sequence; after
every operation they must show the same reads, ``tolist()`` and pickled
state.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpointing.state import IntVector

from tests.analysis._dense_reference import DenseIntVector

SIZES = (3, 16, 300)


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
