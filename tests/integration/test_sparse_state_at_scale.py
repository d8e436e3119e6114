"""A build holds no n-entry zero vector per process.

n processes that each allocate an n-entry clock, ``csn`` and
``commit_known`` are n² zeros before the first event (410 of the 472 MB
of a 4096p build; docs/SCALING.md, "Zero clocks are resident"). A
process now counts messages per channel in dicts of the peers it has
talked to, and :class:`~repro.checkpointing.state.IntVector` holds only
its non-zero entries; ``tests/scale`` bounds the resident size of big
builds, this file holds the structure in tier-1.
"""

from __future__ import annotations

from repro.checkpointing.state import IntVector
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
        vectors = [
            value for value in vars(process.protocol_process).values()
            if isinstance(value, IntVector)
        ]
        assert len(vectors) == 2  # csn, commit_known
        assert all(len(vec) == N and len(vec._d) <= 1 for vec in vectors)
