"""Pickle round-trips for the slotted message classes.

A snapshot pickles every in-flight message along with the event heap
(``repro.snapshot.state.capture``), so every subclass must survive
``pickle.dumps`` → ``pickle.loads`` with identical fields — including
the lazily-absent piggyback/fields dicts (absent stays absent, never
materialized by the trip) and the fast ``pb`` slot. An image written
while computation messages carried a ``vc`` stamp slot still loads.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.vector_clock import VCDelta
from repro.net.message import (
    CheckpointDataMessage,
    ComputationMessage,
    Message,
    SystemMessage,
)


def roundtrip(message):
    return pickle.loads(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def assert_base_fields_equal(a, b):
    assert type(a) is type(b)
    assert a.kind == b.kind
    assert a.src_pid == b.src_pid
    assert a.dst_pid == b.dst_pid
    assert a.size_bytes == b.size_bytes
    assert a.broadcast == b.broadcast
    assert a.msg_id == b.msg_id


def test_base_message_roundtrip():
    m = Message(src_pid=2, dst_pid=5, size_bytes=99, broadcast=False, msg_id=7)
    back = roundtrip(m)
    assert_base_fields_equal(m, back)


def test_computation_message_roundtrip_with_fast_slots():
    m = ComputationMessage(src_pid=0, dst_pid=3, payload=42, msg_id=11)
    m.pb = (5, ("t", 1))
    back = roundtrip(m)
    assert_base_fields_equal(m, back)
    assert back.payload == 42
    assert back.pb == (5, ("t", 1))
    assert back.protocol_tags() == (5, ("t", 1))
    # a message pickled with a vector-clock stamp loads without it
    _, slots = m.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
    old = ComputationMessage.__new__(ComputationMessage)
    old.__setstate__((None, dict(slots, vc=VCDelta(((0, 1),)))))
    assert old.pb == m.pb and old.payload == 42 and not hasattr(old, "vc")


def test_computation_message_lazy_piggyback_stays_absent():
    m = ComputationMessage(src_pid=0, dst_pid=1, msg_id=1)
    back = roundtrip(m)
    assert back._piggyback is None
    assert back.pb is None
    assert back.protocol_tags() == (0, None)
    assert back.piggyback_get("anything", "default") == "default"


def test_computation_message_dict_piggyback_roundtrip():
    m = ComputationMessage(src_pid=1, dst_pid=2, msg_id=9)
    m.piggyback["csn"] = 3
    m.piggyback["inc"] = 1
    back = roundtrip(m)
    assert back.piggyback == {"csn": 3, "inc": 1}
    assert back.piggyback_get("inc") == 1
    # the tags reader only knows the fast slot
    assert back.protocol_tags() == (0, None)


def test_materialized_piggyback_reflects_fast_slots():
    m = ComputationMessage(src_pid=0, dst_pid=1, msg_id=2)
    m.pb = (7, ("trig", 0))
    assert m.piggyback == {"csn": 7, "trigger": ("trig", 0)}


def test_system_message_roundtrip():
    m = SystemMessage(src_pid=4, dst_pid=0, subkind="request", msg_id=13)
    m.fields["mr"] = [1, 2, 3]
    m.fields["trigger"] = ("t", 2)
    back = roundtrip(m)
    assert_base_fields_equal(m, back)
    assert back.subkind == "request"
    assert back.fields == {"mr": [1, 2, 3], "trigger": ("t", 2)}
    # the trip must hand back a fresh dict, not alias the original
    back.fields["x"] = 1
    assert "x" not in m.fields


def test_system_message_lazy_fields_stay_absent():
    m = SystemMessage(src_pid=0, dst_pid=1, subkind="commit", msg_id=3)
    back = roundtrip(m)
    assert back._fields is None
    assert back.fields == {}  # materializes empty on first read


def test_checkpoint_data_message_roundtrip():
    m = CheckpointDataMessage(src_pid=6, dst_pid=None, msg_id=17, checkpoint_ref="c6")
    back = roundtrip(m)
    assert_base_fields_equal(m, back)
    assert back.checkpoint_ref == "c6"
    assert back.on_stored is None


def test_broadcast_flag_roundtrip():
    m = SystemMessage(
        src_pid=0, dst_pid=None, subkind="commit", broadcast=True, msg_id=21
    )
    back = roundtrip(m)
    assert back.broadcast is True
    assert back.dst_pid is None


def test_slots_reject_stray_attributes():
    """__slots__ actually holds: no per-instance dict to leak into."""
    m = ComputationMessage(src_pid=0, dst_pid=1, msg_id=1)
    with pytest.raises(AttributeError):
        m.totally_new_attribute = 1
