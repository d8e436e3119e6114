"""What one host holds after a build does not grow with the population.

The paper keeps per-process state small because a mobile host is short
of memory. Each process's R vector used to be one byte per process, and
every link and process allocated an empty queue and a delay table of
its own, so a 4096p build held 12 kB per host against 8 kB at 128p. Now
R stores its set bits, idle queues are not allocated and links of one
bandwidth share one delay table, so the Python heap a build leaves per
host is the same at 128 and 1024 processes. Measured with
``tracemalloc``, no timing.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.campaign import RunPoint, build_point_runtime

#: the largest heap-per-host ratio of a 1024p build to a 128p build
#: (1.00 measured; 1.10 while R held one byte per process)
MAX_GROWTH = 1.05


def _point(n: int) -> RunPoint:
    return RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 10.0},
        system_params={"n_processes": n, "n_mss": 8, "trace_messages": False},
        run_params={"max_initiations": 4, "warmup_initiations": 1}, seed=11,
    )


def _heap_per_host(n: int) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        runtime = build_point_runtime(_point(n))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del runtime
    return held / n


def test_heap_per_host_does_not_grow_with_n():
    build_point_runtime(_point(8))  # imports and one-off tables, untraced
    small, large = _heap_per_host(128), _heap_per_host(1024)
    assert large <= MAX_GROWTH * small, (
        f"{large:.0f} B per host at 1024p against {small:.0f} B at 128p"
    )
