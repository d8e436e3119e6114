"""A snapshot whose trace records were pickled as dataclasses still resumes.

``TraceRecord`` was a frozen dataclass until it became a ``__slots__``
class; a dataclass instance pickles as its ``__dict__``, which a slotted
class cannot take without a ``__setstate__``. The fixture was written by
the last commit with the dataclass (c183aab, format 2): 16p mutable,
seed 7, the GOLDEN["B"] configuration at DEBUG, cut after 3 200 events
with 2 118 records in the log. Its processes kept a vector clock and
no channel counts, so its checkpoints carry none.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.analysis.consistency import (
    assert_line_consistent,
    check_channel_counts,
    latest_permanent_line,
)
from repro.checkpointing.message_log import SenderMessageLog
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.recovery import DistributedRecovery
from repro.core.config import (
    PointToPointWorkloadConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import ProtocolError
from repro.sim.trace import TraceRecord
from repro.snapshot import read_meta, resume_run
from repro.workload.point_to_point import PointToPointWorkload

from tests.snapshot.test_payload_encoding import _outcome

FIXTURE = os.path.join(
    os.path.dirname(__file__), "data",
    "format2-c183aab-mutable-16p-seed7-debug-ev3200.rsnap",
)


def test_dataclass_pickled_records_resume_into_the_uninterrupted_run():
    assert read_meta(FIXTURE).format_version == 2
    image = resume_run(FIXTURE)
    assert image.system.sim.events_processed == 3200
    assert vars(image)["driver"] is None  # the image slot since deleted
    restored = list(image.system.sim.trace)
    assert len(restored) == 2118
    assert all(type(record) is TraceRecord for record in restored)
    resumed = _outcome(image.system, image.runner.resume(max_events=10_000_000))

    config = SystemConfig(n_processes=16, seed=7, trace_messages=True)
    system = MobileSystem(config, MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    runner = ExperimentRunner(
        system, workload, RunConfig(max_initiations=6, warmup_initiations=1)
    )
    assert resumed == _outcome(system, runner.run(max_events=10_000_000))


def test_an_image_without_counts_is_judged_by_the_orphan_scan_alone():
    image = resume_run(FIXTURE)
    image.runner.resume(max_events=10_000_000)
    system = image.system
    assert all(p.sent is None and p.received is None for p in system.processes.values())
    assert not any(hasattr(p, "vc") for p in system.processes.values())
    line = latest_permanent_line(system.all_stable_storages(), system.processes)
    assert all(record.sent is None for record in line.values())
    assert check_channel_counts(line) is None
    assert_line_consistent(system.sim.trace, line)


def test_an_image_without_counts_leaves_recovery_unjudged():
    """No fallback to the trace: the rollback's lost count is ``None`` and
    the sender log refuses the system."""
    image = resume_run(FIXTURE)
    image.runner.resume(max_events=10_000_000)
    with pytest.raises(ProtocolError):
        SenderMessageLog(image.system)
    assert DistributedRecovery(image.system).rollback().lost_messages is None


def test_a_record_pickles_and_copies_as_itself():
    record = TraceRecord(1.5, "comp_send", {"src": 0, "dst": 1, "msg_id": 7})
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert clone == record and clone is not record
        assert clone.fields is not record.fields
