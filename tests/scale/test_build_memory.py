"""What a big build may cost before its first event (``pytest -m scale``).

Per process a build used to allocate an n-entry clock and two n-entry
int vectors, zero-filled and resident: 472 MB at 4096p, 2.66 GB and
14.5 s at 10 000p. Those are now the size of what has been written to
them (nothing, at build time). The R vector (one byte per process),
empty per-link and per-process queues and a delay table per link went
the same way, which leaves ~5 kB per process at any n. Each
measurement runs in a fresh interpreter so that the allocator's reuse of
an earlier test's pages cannot hide the growth.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.scale

_PROBE = """
import json, resource, sys, time
from repro.campaign import RunPoint, build_point_runtime
from repro.errors import SimulationError

def rss_mb():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20

n, events = int(sys.argv[1]), int(sys.argv[2])
# with events, the 4096p rung of the scale_ladder benchmark
point = RunPoint(
    protocol="mutable", workload="p2p",
    workload_params={"mean_send_interval": 1.0 if events else 10.0},
    system_params={"n_processes": n, "n_mss": 8, "trace_messages": False},
    run_params={"max_initiations": 10**6 if events else 4,
                "warmup_initiations": 1}, seed=11,
)
before, start = rss_mb(), time.perf_counter()
system, _, runner = build_point_runtime(point)
seconds = time.perf_counter() - start
if events:
    try:
        runner.run(max_events=events)
    except SimulationError as exc:
        assert "max_events" in str(exc), exc
print(json.dumps({"seconds": seconds, "growth_mb": rss_mb() - before}))
"""


def _build_in_a_fresh_interpreter(n: int, events: int = 0) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(n), str(events)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
@pytest.mark.parametrize(
    "n, max_growth_mb, max_seconds",
    # measured 19.6 MB / 0.15 s and 47.2 MB / 0.35 s on a shared 2-core
    # host (48.4 MB and 173.9 MB while R held one byte per process and
    # every link and process an empty queue); the dense build was
    # 450 MB / 0.48 s and 2 535 MB / 13 s
    [(4096, 35.0, None), (10_000, 90.0, 3.0)],
    ids=["4096p", "10000p"],
)
def test_build_rss_growth_is_per_process_not_per_pair(n, max_growth_mb, max_seconds):
    measured = _build_in_a_fresh_interpreter(n)
    assert measured["growth_mb"] <= max_growth_mb, measured
    if max_seconds is not None:
        assert measured["seconds"] <= max_seconds, measured


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_start_and_run_rss_growth_at_4096p():
    """Build the 4096p ladder point and run 20 000 events: the start
    arms every host's first send, and most hosts send by the end.
    Measured 42.8 MB on a shared 2-core host (48.6 MB while every
    destination stream was derived at start, whether its host had sent
    or not); the bound adds the 15 MB the 4096p build case allows."""
    measured = _build_in_a_fresh_interpreter(4096, events=20_000)
    assert measured["growth_mb"] <= 58.0, measured
