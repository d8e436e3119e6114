"""Property-based tests on core data structures and invariants."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import summarize
from repro.analysis.vector_clock import VectorClock, concurrent, happened_before
from repro.checkpointing.types import MREntry
from repro.checkpointing.weights import ONE, ZERO, split
from repro.net.channel import FifoChannel
from repro.net.message import Message
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Weights: arbitrary split trees conserve total weight exactly.
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(0, 50), min_size=0, max_size=120))
def test_weight_split_tree_conserves_one(choices):
    holders = [ONE]
    for choice in choices:
        index = choice % len(holders)
        if holders[index] > 0:
            piece = split(holders[index])
            holders[index] -= piece
            holders.append(piece)
    assert sum(holders, ZERO) == ONE


@given(st.integers(1, 400))
def test_weight_repeated_split_exact(depth):
    w = ONE
    shipped = []
    for _ in range(depth):
        piece = split(w)
        w = w - piece
        shipped.append(piece)
    assert w + sum(shipped, ZERO) == ONE
    assert w == Fraction(1, 2**depth)


# ---------------------------------------------------------------------------
# Vector clocks: algebraic laws of merge / happened-before.
# ---------------------------------------------------------------------------
clocks = st.lists(st.integers(0, 20), min_size=3, max_size=3).map(tuple)


@given(clocks, clocks)
def test_merge_commutative(a, b):
    va, vb = VectorClock(0, 3), VectorClock(0, 3)
    va.merge(a)
    va.merge(b)
    vb.merge(b)
    vb.merge(a)
    assert va.snapshot() == vb.snapshot()


@given(clocks)
def test_merge_idempotent(a):
    v = VectorClock(0, 3)
    v.merge(a)
    once = v.snapshot()
    v.merge(a)
    assert v.snapshot() == once


@given(clocks, clocks)
def test_happened_before_antisymmetric(a, b):
    assert not (happened_before(a, b) and happened_before(b, a))


@given(clocks)
def test_happened_before_irreflexive(a):
    assert not happened_before(a, a)


@given(clocks, clocks, clocks)
def test_happened_before_transitive(a, b, c):
    if happened_before(a, b) and happened_before(b, c):
        assert happened_before(a, c)


@given(clocks, clocks)
def test_exactly_one_relation(a, b):
    relations = [
        happened_before(a, b),
        happened_before(b, a),
        concurrent(a, b),
        tuple(a) == tuple(b),
    ]
    assert sum(relations) == 1


# ---------------------------------------------------------------------------
# MR entries: merge is monotone and idempotent.
# ---------------------------------------------------------------------------
entries = st.builds(MREntry, st.integers(0, 100), st.booleans())


@given(entries, st.integers(0, 100), st.booleans())
def test_mr_merge_monotone(entry, csn, r):
    merged = entry.merged_with(csn, r)
    assert merged.csn >= entry.csn
    assert merged.csn >= csn
    assert merged.r == (entry.r or r)


@given(entries)
def test_mr_merge_idempotent(entry):
    assert entry.merged_with(entry.csn, entry.r) == entry


# ---------------------------------------------------------------------------
# Channels: FIFO no matter the sizes and send times.
# ---------------------------------------------------------------------------
@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 10.0), st.integers(1, 10**6)),
        min_size=1,
        max_size=30,
    ),
    st.booleans(),
)
def test_channel_fifo_for_any_sizes(sends, contention):
    sim = Simulator()
    arrived = []
    channel = FifoChannel(
        sim, 2_000_000.0, 0.001, lambda m: arrived.append(m.msg_id),
        contention=contention,
    )
    expected = []
    for delay, size in sorted(sends, key=lambda x: x[0]):
        msg = Message(src_pid=0, dst_pid=1, size_bytes=size)
        expected.append(msg.msg_id)
        sim.schedule_at(delay, channel.send, msg)
    sim.run_until_idle()
    assert arrived == expected


@settings(max_examples=50)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
def test_channel_arrival_never_before_transmission_time(sizes):
    sim = Simulator()
    arrivals = []
    channel = FifoChannel(
        sim, 1_000_000.0, 0.0, lambda m: arrivals.append((sim.now, m))
    )
    for size in sizes:
        channel.send(Message(src_pid=0, dst_pid=1, size_bytes=size))
    sim.run_until_idle()
    for time, msg in arrivals:
        assert time >= msg.size_bytes * 8 / 1_000_000.0 - 1e-12


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=50)
)
def test_ci_contains_mean(samples):
    s = summarize(samples)
    assert s.ci_low <= s.mean <= s.ci_high
