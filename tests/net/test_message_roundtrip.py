"""Pickle round-trips for the slotted message classes.

A snapshot pickles every in-flight message along with the event heap
(``repro.snapshot.state.capture``), so every subclass must survive
``pickle.dumps`` → ``pickle.loads`` with identical fields — including
the ``pb`` and ``inc`` slots. An image written while computation
messages carried a ``vc`` stamp slot, or a piggyback dict, or while a
system message's fields dict was materialized lazily, still loads.
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
    assert back.pb is None
    assert back.protocol_tags() == (0, None)
    assert back.inc == 0
    m.inc = 3
    assert roundtrip(m).inc == 3


def test_computation_message_dict_piggyback_roundtrip():
    """An image written while a message's extras rode in a dict: the
    incarnation moves into its slot, the rest (Chandy-Lamport's unread
    generation) is dropped."""
    m = ComputationMessage(src_pid=1, dst_pid=2, msg_id=9)
    m.pb = (3, None)
    _, slots = m.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
    slots = {k: v for k, v in slots.items() if k != "inc"}
    for extras, inc in (({"inc": 1, "cl_gen": 4}, 1), ({"cl_gen": 4}, 0), (None, 0)):
        back = ComputationMessage.__new__(ComputationMessage)
        back.__setstate__((None, dict(slots, _piggyback=extras)))
        assert back.inc == inc and back.protocol_tags() == (3, None)
        assert_base_fields_equal(m, back)


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


def test_system_message_without_fields_carries_an_empty_dict():
    m = SystemMessage(src_pid=0, dst_pid=1, subkind="commit", msg_id=3)
    back = roundtrip(m)
    assert back.fields == {}


def test_system_message_from_an_image_with_lazy_fields():
    """An image written while ``fields`` was a lazy property stores a
    ``_fields`` slot: ``None`` loads as an empty dict, a dict as itself."""
    for old, fields in ((None, {}), ({"trigger": ("t", 1)}, {"trigger": ("t", 1)})):
        back = SystemMessage.__new__(SystemMessage)
        back.__setstate__((None, {"src_pid": 1, "dst_pid": 2, "size_bytes": 50,
                                  "broadcast": False, "msg_id": 7,
                                  "subkind": "request", "_fields": old}))
        assert back.fields == fields and back.subkind == "request"


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
