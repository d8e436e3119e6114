"""What a big build may cost before its first event (``pytest -m scale``).

Per process a build used to allocate an n-entry clock and two n-entry
int vectors, zero-filled and resident: 472 MB at 4096p, 2.66 GB and
14.5 s at 10 000p. Those are now the size of what has been written to
them (nothing, at build time), which leaves ~12 kB per process. Each
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

def rss_mb():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20

point = RunPoint(
    protocol="mutable", workload="p2p",
    workload_params={"mean_send_interval": 10.0},
    system_params={"n_processes": int(sys.argv[1]), "n_mss": 8,
                   "trace_messages": False},
    run_params={"max_initiations": 4, "warmup_initiations": 1}, seed=11,
)
before, start = rss_mb(), time.perf_counter()
runtime = build_point_runtime(point)
print(json.dumps({"seconds": time.perf_counter() - start,
                  "growth_mb": rss_mb() - before}))
"""


def _build_in_a_fresh_interpreter(n: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(n)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
@pytest.mark.parametrize(
    "n, max_growth_mb, max_seconds",
    # measured 48 MB / 0.10 s and 173 MB / 0.26 s with the collector
    # paused for the build (0.13 s and 0.37 s without, same growth); the
    # dense build was 450 MB / 0.48 s and 2 535 MB / 13 s
    [(4096, 100.0, None), (10_000, 400.0, 3.0)],
    ids=["4096p", "10000p"],
)
def test_build_rss_growth_is_per_process_not_per_pair(n, max_growth_mb, max_seconds):
    measured = _build_in_a_fresh_interpreter(n)
    assert measured["growth_mb"] <= max_growth_mb, measured
    if max_seconds is not None:
        assert measured["seconds"] <= max_seconds, measured
