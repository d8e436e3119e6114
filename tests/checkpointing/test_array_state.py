"""The §3.2 state the protocols keep, and the images it used to have.

csn and ``commit_known`` are ``defaultdict(int)``, R a ``set`` of pids
and MR a ``dict`` of the slots written. Until they were, they lived in
list-like wrappers (``IntVector`` / ``BitVector`` / ``MRVector``), and
snapshots written then hold those. Seeded random vectors, written in
every form the wrappers pickled as, must load as the container with the
same contents, read for read against a list oracle. The protocol's own
use of R is held too: the §3.6 give-back against the oracle's OR, the
R a checkpoint keeps apart from the live one, requests in pid order. A
last group checks what the snapshot and inspection machinery lean on:
the stores pickle, deep-copy and survive a ``state_dict`` round-trip
mid-wave at 1024 processes.
"""

from __future__ import annotations

import copy
import pickle
import random
from collections import defaultdict

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.types import MREntry
from repro.scenarios.harness import ScenarioHarness
from tests.snapshot import _old_images as old

SEEDS = (0, 7, 20260808)
N = 67  # odd, not a power of two: shakes out off-by-one scans


def _random_lengths(rng):
    return [rng.choice((0, 1, 2, N, 300)) for _ in range(40)]


# -- old images of random vectors vs the list oracle --------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_int_vector_matches_list_oracle(seed):
    rng = random.Random(seed)
    for n in _random_lengths(rng):
        fill = rng.random()
        oracle = [rng.randrange(-5, 2**40) if rng.random() < fill else 0 for _ in range(n)]
        for form in ("packed", "list"):
            csn = old.loads(old.dumps(old.int_vector(oracle, form)))
            assert type(csn) is defaultdict
            assert all(csn.values()), "a stored zero"
            assert [csn[i] for i in range(n)] == oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_vector_matches_list_oracle(seed):
    rng = random.Random(seed)
    for n in _random_lengths(rng):
        fill = rng.random()
        oracle = [rng.random() < fill for _ in range(n)]
        for form in ("ones", "bytes"):
            r = old.loads(old.dumps(old.bit_vector(oracle, form)))
            assert type(r) is set
            assert [i in r for i in range(n)] == oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_mr_vector_matches_list_oracle(seed):
    rng = random.Random(seed)
    for n in _random_lengths(rng):
        oracle = [MREntry()] * n
        for _ in range(rng.randrange(n + 1)):
            oracle[rng.randrange(n)] = MREntry(rng.randrange(10), rng.random() < 0.5)
        # the slots written, now and then one written back to zero
        entries = {
            i: entry for i, entry in enumerate(oracle)
            if entry != MREntry() or rng.random() < 0.1
        }
        mr = old.loads(old.dumps(old.mr_vector(n, entries)))
        assert type(mr) is dict and mr == entries
        assert [mr.get(i, MREntry()) for i in range(n)] == oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_vector_loads_the_old_bytes_image(seed):
    rng = random.Random(seed)
    bits = [rng.random() < 0.1 for _ in range(N)]
    r = old.loads(old.dumps(old.bit_vector(bits, "bytes")))
    assert r == {i for i, b in enumerate(bits) if b}
    assert old.loads(old.dumps(old.bit_vector([], "bytes"))) == set()


def test_bit_vector_pickles_as_its_set_bits():
    assert old.loads(old.dumps(old.bit_vector([i in (4, 60) for i in range(N)]))) == {4, 60}
    # a 4096p R with three peers heard from pickles small, not one byte each
    assert len(pickle.dumps({1, 2000, 4095})) < 100


# -- R in the protocol ---------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_bit_vector_or_with_bitvector_oracle(seed):
    """The §3.6 give-back: an aborted tentative checkpoint ORs the R it
    consumed back into the R gathered since, as the list oracle would."""
    rng = random.Random(seed)
    n = 12
    # P0 and P1 run the wave; the others send to P1 before and after
    before = [False, False] + [rng.random() < 0.4 for _ in range(2, n)]
    since = [False, False] + [rng.random() < 0.4 for _ in range(2, n)]
    h = ScenarioHarness(n, MutableCheckpointProtocol())
    for src in range(2, n):
        if before[src]:
            h.deliver(h.send(src, 1))
    h.deliver(h.send(1, 0))          # P0 depends on P1: P1 is requested
    h.initiate(0)
    h.deliver(h.pending_system("request")[0])
    p1 = h.processes[1]
    assert p1.pending_tentative and not p1.r
    for src in range(2, n):
        if since[src]:
            h.deliver(h.send(src, 1))
    h.processes[0].abort_initiation()
    h.deliver_all_system()
    oracle = [a or b for a, b in zip(before, since)]
    assert [i in p1.r for i in range(n)] == oracle


def test_bit_vector_copies_are_independent():
    """A checkpoint keeps the R it replaces and the process starts a new
    one: neither sees what is later added to the other."""
    h = ScenarioHarness(5, MutableCheckpointProtocol())
    h.deliver(h.send(0, 2))          # P2 depends on P0
    h.deliver(h.send(0, 1))          # keep P1's initiation open
    h.send(2, 0)                     # P2 has sent this interval
    h.initiate(1)
    h.deliver(h.send(1, 2))          # tagged: P2 takes a mutable checkpoint
    p2 = h.processes[2]
    (mutable,) = p2.mutables.values()
    assert mutable.saved_r == {0} and p2.r == {1}
    p2.r.add(3)
    assert mutable.saved_r == {0}
    h.deliver_all_system()           # the commit discards it: R gets it back
    assert not p2.mutables and p2.r == {0, 1, 3}
    mutable.saved_r.add(4)
    assert 4 not in p2.r


def test_bit_vector_yields_set_bits_ascending():
    """R is a set, whose iteration order is no order; the requests a
    checkpoint sends still leave in ascending pid order."""
    h = ScenarioHarness(70, MutableCheckpointProtocol())
    for src in (64, 3, 40, 66, 9, 1):  # P0 hears from them out of order
        h.deliver(h.send(src, 0))
    h.initiate(0)
    requests = h.trace.where("sys_send", subkind="request")
    assert [record["dst"] for record in requests] == [1, 3, 9, 40, 64, 66]


# -- serialization surface ----------------------------------------------------

def _stores():
    """A process's csn and R, and the MR of a request it sent."""
    h = ScenarioHarness(5, MutableCheckpointProtocol())
    h.deliver(h.send(2, 0))
    h.deliver(h.send(4, 0))
    h.deliver(h.send(0, 3))
    p0 = h.processes[0]
    r = set(p0.r)
    h.initiate(0)
    mr = h.pending_system("request")[0].message.fields["mr"]
    return {"int": p0.csn, "bit": r, "mr": mr}


@pytest.mark.parametrize("kind", ["int", "bit", "mr"])
def test_stores_pickle_and_deepcopy(kind):
    store = _stores()[kind]
    assert store
    for clone in (old.loads(pickle.dumps(store)), copy.deepcopy(store)):
        assert type(clone) is type(store)
        assert clone == store
        assert clone is not store
    if kind == "int":  # a loaded csn still reads 0 where unset
        assert old.loads(pickle.dumps(store))[99] == 0


def test_int_vector_deepcopy_detaches():
    h = ScenarioHarness(3, MutableCheckpointProtocol())
    h.initiate(1)
    p1 = h.processes[1]
    state = p1.state_dict()
    state["csn"][1] = 99
    state["r"].add(2)
    assert p1.csn[1] == 1 and p1.r == set()


def test_state_dict_round_trips_mid_wave_at_1024p():
    """The generic ``state_dict``/``load_state_dict`` must carry the
    stores across a round-trip taken mid-wave at 1024 processes
    (requests in flight, R/csn/MR populated)."""
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
        if not (process.r or process.sent):
            continue
        before = process.state_dict()
        process.load_state_dict(before)
        after = process.state_dict()
        assert after.keys() == before.keys()
        assert after["r"] == before["r"]
        assert after["csn"] == before["csn"]
        assert type(after["r"]) is set
        assert type(after["csn"]) is defaultdict
        touched += 1
        if touched >= 32:
            break
    assert touched > 0, "no process was mid-wave; raise the event budget"
