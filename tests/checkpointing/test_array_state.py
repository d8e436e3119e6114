"""Seeded property tests for the array-backed protocol state stores.

:class:`~repro.checkpointing.state.IntVector` /
:class:`~repro.checkpointing.state.BitVector` /
:class:`~repro.checkpointing.state.MRVector` replaced the plain lists
the protocols used for csn/R/MR at large populations. Each store is
driven through long random operation sequences in lockstep with the
list-backed oracle it replaced; after every operation the store must
agree with the oracle observation for observation. A second group
checks the serialization surface the snapshot/recovery machinery leans
on (pickle, deepcopy, ``state_dict`` round-trips mid-wave at 1024
processes).
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from repro.checkpointing.state import BitVector, IntVector, MRVector, true_indices
from repro.checkpointing.types import MREntry

SEEDS = (0, 7, 20260808)
N = 67  # odd, not a power of two: shakes out off-by-one scans


# -- random-op equivalence vs the list oracle ---------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_int_vector_matches_list_oracle(seed):
    rng = random.Random(seed)
    vec = IntVector(N)
    oracle = [0] * N
    for _ in range(2000):
        op = rng.randrange(4)
        if op == 0:
            i = rng.randrange(N)
            value = rng.randrange(-5, 100)
            vec[i] = value
            oracle[i] = value
        elif op == 1:
            i = rng.randrange(N)
            assert vec[i] == oracle[i]
        elif op == 2:
            # componentwise max-merge, the csn/commit_known update shape
            incoming = [rng.randrange(50) for _ in range(N)]
            for i, value in enumerate(incoming):
                if value > vec[i]:
                    vec[i] = value
                if value > oracle[i]:
                    oracle[i] = value
        else:
            vec.clear()
            oracle = [0] * N
        assert vec == oracle
        assert list(vec) == oracle
        assert vec.tolist() == oracle
        assert len(vec) == N


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_vector_matches_list_oracle(seed):
    rng = random.Random(seed)
    vec = BitVector(N)
    oracle = [False] * N
    for _ in range(2000):
        op = rng.randrange(5)
        if op == 0:
            i = rng.randrange(N)
            value = rng.random() < 0.5
            vec[i] = value
            oracle[i] = value
        elif op == 1:
            i = rng.randrange(N)
            assert vec[i] == oracle[i]
        elif op == 2:
            # the §3.3.4 give-back merge (R |= saved_r)
            other = [rng.random() < 0.2 for _ in range(N)]
            vec.or_with(other)
            oracle = [a or b for a, b in zip(oracle, other)]
        elif op == 3:
            # clear-own-wave reset
            vec.clear()
            oracle = [False] * N
        else:
            assert list(vec.true_indices()) == [
                i for i, value in enumerate(oracle) if value
            ]
            assert vec.any() == any(oracle)
        assert vec == oracle
        assert list(vec) == oracle
        assert vec.tolist() == oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_vector_or_with_bitvector_oracle(seed):
    rng = random.Random(seed)
    a_bits = [rng.random() < 0.3 for _ in range(N)]
    b_bits = [rng.random() < 0.3 for _ in range(N)]
    vec = BitVector(a_bits)
    vec.or_with(BitVector(b_bits))
    assert vec == [x or y for x, y in zip(a_bits, b_bits)]


@pytest.mark.parametrize("seed", SEEDS)
def test_mr_vector_matches_list_oracle(seed):
    rng = random.Random(seed)
    vec = MRVector(N)
    oracle = [MREntry()] * N
    for _ in range(1000):
        op = rng.randrange(4)
        if op == 0:
            i = rng.randrange(N)
            entry = MREntry(rng.randrange(10), rng.random() < 0.5)
            vec[i] = entry
            oracle[i] = entry
        elif op == 1:
            i = rng.randrange(N)
            assert vec[i] == oracle[i]
        elif op == 2:
            # the prop_cp pointwise merge
            i = rng.randrange(N)
            csn, r = rng.randrange(10), rng.random() < 0.5
            vec[i] = vec[i].merged_with(csn, r)
            oracle = list(oracle)
            oracle[i] = oracle[i].merged_with(csn, r)
        else:
            # the per-hop copy must detach
            dup = vec.copy()
            i = rng.randrange(N)
            dup[i] = MREntry(999, True)
            assert vec[i] != MREntry(999, True) or oracle[i] == MREntry(999, True)
        assert vec == oracle
        assert list(vec) == list(oracle)
        assert len(vec) == N


def test_true_indices_accepts_plain_lists():
    bits = [False, True, False, False, True]
    assert list(true_indices(bits)) == [1, 4]
    assert list(true_indices(BitVector(bits))) == [1, 4]


def test_unset_mr_slot_is_the_all_zero_entry():
    vec = MRVector(4)
    assert all(entry == MREntry(0, False) for entry in vec)
    assert vec == [MREntry()] * 4


# -- serialization surface ----------------------------------------------------

@pytest.mark.parametrize(
    "store",
    [
        IntVector([3, 0, 7, -1]),
        BitVector([True, False, True]),
        MRVector(5, {2: MREntry(4, True)}),
    ],
    ids=["int", "bit", "mr"],
)
def test_stores_pickle_and_deepcopy(store):
    for clone in (pickle.loads(pickle.dumps(store)), copy.deepcopy(store)):
        assert type(clone) is type(store)
        assert clone == store
        assert clone is not store


def test_int_vector_deepcopy_detaches():
    vec = IntVector([1, 2, 3])
    dup = copy.deepcopy(vec)
    dup[0] = 99
    assert vec[0] == 1


def test_state_dict_round_trips_mid_wave_at_1024p():
    """The generic ``state_dict``/``load_state_dict`` must carry the
    array-backed stores across a round-trip taken mid-wave at 1024
    processes (requests in flight, R/csn/MR populated)."""
    from repro.checkpointing.mutable import MutableCheckpointProtocol
    from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
    from repro.core.runner import ExperimentRunner
    from repro.core.system import MobileSystem
    from repro.errors import SimulationError
    from repro.workload.point_to_point import PointToPointWorkload

    config = SystemConfig(n_processes=1024, seed=7, trace_messages=False)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=1.0)
    )
    runner = ExperimentRunner(system, workload, RunConfig(max_initiations=2))
    workload.start()
    runner._schedule_first_initiations()
    try:
        # stop mid-run: waves will be in flight at this event budget
        system.sim.run(max_events=30_000)
    except SimulationError:
        pass

    touched = 0
    for pid in range(1024):
        process = system.processes[pid].protocol_process
        if not (process.r.any() or process.sent):
            continue
        before = process.state_dict()
        process.load_state_dict(before)
        after = process.state_dict()
        assert after.keys() == before.keys()
        assert after["r"] == before["r"]
        assert after["csn"] == before["csn"]
        assert type(after["r"]) is BitVector
        assert type(after["csn"]) is IntVector
        touched += 1
        if touched >= 32:
            break
    assert touched > 0, "no process was mid-wave; raise the event budget"
