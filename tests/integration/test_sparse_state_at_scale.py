"""A build holds no n-entry zero vector per process.

n processes that each allocate an n-entry clock, ``csn`` and
``commit_known`` are n² zeros before the first event (410 of the 472 MB
of a 4096p build; docs/SCALING.md, "Zero clocks are resident"). A
process now counts messages per channel in dicts of the peers it has
talked to, and ``csn`` and ``commit_known`` are dicts of the entries
used; ``tests/scale`` bounds the resident size of big builds, this file
holds the structure in tier-1.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.config import SystemConfig
from repro.core.registry import build_protocol
from repro.core.system import MobileSystem

N = 256


def test_a_build_allocates_no_vector_per_process():
    config = SystemConfig(
        n_processes=N, seed=11, checkpoint_interval=30.0, trace_messages=False,
    )
    system = MobileSystem(config, build_protocol("mutable"))
    assert len(system.processes) == N
    for process in system.processes.values():
        assert not process.sent and not process.received
        protocol_process = process.protocol_process
        for vector in (protocol_process.csn, protocol_process.commit_known):
            assert type(vector) is defaultdict and vector.default_factory is int
            assert len(vector) <= 1
        assert not protocol_process.r
