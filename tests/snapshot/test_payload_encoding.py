"""What the snapshot payload stores for arrays and generators (format 2).

Int vectors pickle as packed bytes (sparse when under half full), bit
vectors as their bytes, random streams as their state words. Every
shape must come back equal through ``pickle`` and through
``copy.deepcopy``; a format-1 file, written at the commit before the
encoding changed, must still resume into the run it was cut from, with
numpy installed or not.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

from repro.analysis.vector_clock import PackedInts
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.state import BitVector, IntVector
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SnapshotError
from repro.sim.rng import RandomStreams, raw_rng
from repro.snapshot import read_meta, resume_run
from repro.snapshot.state import restore
from repro.workload.point_to_point import PointToPointWorkload

N = 67

#: (id, values): both sides of the sparse/dense choice and its edges
VECTORS = [
    ("empty", []),
    ("all-zero", [0] * N),
    ("first", [5] + [0] * (N - 1)),
    ("last", [0] * (N - 1) + [5]),
    ("dense", list(range(1, N + 1))),
    ("half", [1, 0] * 8),  # exactly half full: stored whole
    ("wide", [-1, 2**31, -(2**40), 2**62] + [0] * 12),
    ("wide-dense", [-1, 2**31, -(2**40), 2**62]),
]
VECTOR_IDS = [name for name, _ in VECTORS]
VECTOR_VALUES = [values for _, values in VECTORS]


def _clones(obj):
    return (
        pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
        pickle.loads(pickle.dumps(obj, protocol=2)),
        copy.deepcopy(obj),
    )


@pytest.mark.parametrize("values", VECTOR_VALUES, ids=VECTOR_IDS)
def test_int_vector_round_trips(values):
    vec = IntVector(values)
    for clone in _clones(vec):
        assert type(clone) is IntVector
        assert clone.tolist() == values
        if values:
            clone[0] = 99  # a live array again, detached from the original
            assert vec.tolist() == values


def test_sparse_and_dense_forms_are_chosen_by_fill():
    sparse = IntVector([0] * 1000 + [3]).__reduce__()[1][0]
    assert isinstance(sparse, PackedInts)
    assert sparse.n == 1001 and len(sparse.indices) == 4 and len(sparse.data) == 8
    dense = IntVector(range(1, 1001)).__reduce__()[1][0]
    assert dense.indices is None and len(dense.data) == 8000
    assert len(pickle.dumps(IntVector(1024), protocol=pickle.HIGHEST_PROTOCOL)) < 200


#: (id, non-zero entries, length, the vector's pickled image as written
#: at the commit before ``struct`` packed it): the packing must not move
#: a byte
PINNED_IMAGES = [
    ("sparse", {3: 7, 17: -2, 39: 2**40}, 40,
     "8005958c000000000000008c19726570726f2e636865636b706f696e74696e672e73"
     "74617465948c09496e74566563746f729493948c1b726570726f2e616e616c797369"
     "732e766563746f725f636c6f636b948c0a5061636b6564496e74739493944b28430c"
     "0300000011000000270000009443180700000000000000feffffffffffffff000000"
     "00000100009487948194859452942e"),
    ("dense", {0: 5, 2: -1, 3: 2**33, 4: 9}, 5,
     "8005958e000000000000008c19726570726f2e636865636b706f696e74696e672e73"
     "74617465948c09496e74566563746f729493948c1b726570726f2e616e616c797369"
     "732e766563746f725f636c6f636b948c0a5061636b6564496e74739493944b054e43"
     "2805000000000000000000000000000000ffffffffffffffff000000000200000009"
     "000000000000009487948194859452942e"),
]


@pytest.mark.parametrize(
    "entries, n, image", [case[1:] for case in PINNED_IMAGES],
    ids=[case[0] for case in PINNED_IMAGES],
)
def test_int_vector_images_are_pinned(entries, n, image):
    vec = IntVector(n)
    for index, value in entries.items():
        vec[index] = value
    assert pickle.dumps(vec, protocol=5).hex() == image
    assert pickle.loads(bytes.fromhex(image)) == vec


@pytest.mark.parametrize(
    "bits", [[], [False] * N, [True] + [False] * (N - 1), [False] * (N - 1) + [True],
             [True] * N],
    ids=["empty", "all-zero", "first", "last", "dense"],
)
def test_bit_vector_round_trips(bits):
    vec = BitVector(bits)
    for clone in _clones(vec):
        assert type(clone) is BitVector
        assert clone.tolist() == bits
        assert list(clone.true_indices()) == [i for i, b in enumerate(bits) if b]
        if bits:
            clone[0] = not bits[0]
            assert vec.tolist() == bits


def test_bit_vector_takes_its_bytes_image_whole():
    image = BitVector([True, False, True]).__reduce__()[1][0]
    assert type(image) is bytes
    vec = BitVector(image)
    assert vec.tolist() == [True, False, True]
    vec[1] = True  # a bytearray of its own
    assert vec.tolist() == [True, True, True]


# -- random streams -------------------------------------------------------------

def test_stream_round_trip_continues_the_draw_sequence():
    stream = RandomStreams(7).stream("workload.p2p.3")
    for _ in range(10):
        stream.random()
    stream.gauss(0.0, 1.0)  # leaves the pair's second value pending
    assert stream.getstate()[2] is not None
    for clone in _clones(stream):
        assert type(clone) is type(stream)
        assert clone.getstate() == stream.getstate()
    clone = pickle.loads(pickle.dumps(stream))
    assert [clone.gauss(0.0, 1.0), clone.random(), clone.expovariate(2.0),
            clone.choice(range(1000))] == [
        stream.gauss(0.0, 1.0), stream.random(), stream.expovariate(2.0),
        stream.choice(range(1000))
    ]


def test_raw_rng_round_trips_and_is_compact():
    rng = raw_rng(99)
    rng.random()
    blob = pickle.dumps(rng, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 2700  # 625 words as bytes; 3.8 kB as pickled ints
    assert pickle.loads(blob).random() == rng.random()


def test_pickle_keeps_a_stream_shared_with_its_bound_draws():
    streams = RandomStreams(7)
    expo = streams.stream("a").expovariate
    restored, restored_expo = pickle.loads(pickle.dumps((streams, expo)))
    assert restored_expo.__self__ is restored.stream("a")
    assert restored_expo(1.0) == expo(1.0)
    assert restored.stream("a").random() == streams.stream("a").random()


# -- a format-1 file still resumes ----------------------------------------------

#: written at the commit before format 2 (16p mutable, seed 7, the
#: GOLDEN["B"] configuration, cut after 2 000 events): per-element int
#: lists, ndarray clocks, ``random.Random`` default reduces, and a
#: workload that predates the shared peer views
FORMAT1_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "format1-mutable-16p-seed7-ev2000.rsnap"
)


def _outcome(system, result):
    metrics = json.dumps(result.metrics, sort_keys=True).encode()
    return (
        system.sim.trace.content_hash(),
        hashlib.sha256(metrics).hexdigest(),
        system.sim.events_processed,
        system.sim.now,
    )


def test_format1_snapshot_resumes_into_the_uninterrupted_run():
    assert read_meta(FORMAT1_FIXTURE).format_version == 1
    image = resume_run(FORMAT1_FIXTURE)
    assert image.system.sim.events_processed == 2000
    assert vars(image)["driver"] is None  # the image slot since deleted
    resumed = _outcome(image.system, image.runner.resume(max_events=10_000_000))

    config = SystemConfig(n_processes=16, seed=7, trace_messages=False)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    assert resumed == _outcome(system, runner.run(max_events=10_000_000))


def test_format1_snapshot_resumes_without_numpy():
    """The fixture's numpy arrays (the old per-process clocks) load inert."""
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from tests.snapshot import test_payload_encoding as t\n"
        "t.test_format1_snapshot_resumes_into_the_uninterrupted_run()\n"
        "print('resumed')"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."])},
        capture_output=True, text=True,
    )
    assert out.returncode == 0 and out.stdout.strip() == "resumed", out.stderr


@pytest.mark.parametrize("module, name", [
    ("numpy", "ndarray"), ("numpy.core.multiarray", "_reconstruct"),
])
def test_other_numpy_globals_are_refused(module, name):
    payload = f"\x80\x02c{module}\n{name}\n(K\x01tR.".encode("latin-1")
    with pytest.raises(SnapshotError, match=re.escape(f"{module}.{name}")):
        restore(payload)


def test_an_image_parking_the_old_mutable_noop_resumes(monkeypatch):
    """An image written while ``checkpointing.mutable`` kept its own
    ``_noop`` parks that name on in-flight checkpoint transfers (precopy
    mode); it loads as ``protocol.noop`` and resumes into the same run."""
    import repro.checkpointing.mutable as mutable
    from repro.snapshot import SnapshotPolicy, Snapshotter

    def _noop() -> None:
        pass

    _noop.__module__, _noop.__qualname__ = mutable.__name__, "_noop"
    with monkeypatch.context() as patch:
        patch.setattr(mutable, "_noop", _noop, raising=False)
        patch.setattr(mutable, "noop", _noop)
        config = SystemConfig(n_processes=16, seed=7, trace_messages=False)
        system = MobileSystem(
            config, MutableCheckpointProtocol(reply_after_transfer=False)
        )
        workload = PointToPointWorkload(
            system, PointToPointWorkloadConfig(mean_send_interval=15.0)
        )
        runner = ExperimentRunner(
            system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
        )
        snap = Snapshotter(runner, SnapshotPolicy(every_events=100))
        snap.install()
        expected = _outcome(system, runner.run(max_events=10_000_000))
    payload = next(p for _, p in snap.memory if b"_noop" in p)
    image = restore(payload)
    resumed = image.runner.resume(max_events=10_000_000)
    assert _outcome(image.system, resumed) == expected
