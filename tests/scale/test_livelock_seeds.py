"""The Koo–Toueg duplicate-request abort livelock stays closed
(``pytest -m scale``).

``benchmarks/e2e/workloads.py`` steps over 24 ``LIVELOCK_SEEDS``: seeds
on which one Koo–Toueg point of the §5.1 grid never ended, because a
wave aborted by a concurrent initiation was re-joined by late requests
and chased its own abort for ever. PR 16 fixed the protocol (a duplicate
request no longer re-opens an aborted wave) and every one of those
points has ended since — but the benchmark still avoids the seeds, so
nothing would notice the fix being reverted. This does.

The seeds are imported from the benchmark, not copied. The set does not
say which seed hung at which size (fourteen were found at 22 or 8
initiations, ten at 4 or 3), so every seed runs at all four: 24 seeds x
6 Koo–Toueg points x 4 sizes = 576 runs, about a minute. The longest
needs 124 192 events; a livelocked point never stops scheduling and
hits the budget instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.campaign import build_point_runtime
from repro.errors import SimulationError

pytestmark = pytest.mark.scale

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

#: no point may need more events than this to reach its last commit
EVENT_BUDGET = 400_000


@pytest.mark.parametrize("initiations", [22, 8, 4, 3])
def test_every_livelock_seed_now_terminates(initiations, monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))  # workloads.py imports its siblings
    workloads = importlib.import_module("workloads")
    assert len(workloads.LIVELOCK_SEEDS) == 24

    stuck = []
    for seed in sorted(workloads.LIVELOCK_SEEDS):
        spec = workloads.grid_spec(seed, initiations, warmup=1)
        points = [p for p in spec.expand() if p.protocol == "koo-toueg"]
        assert len(points) == 6
        for point in points:
            _, _, runner = build_point_runtime(point)
            try:
                result = runner.run(max_events=EVENT_BUDGET)
            except SimulationError as exc:
                stuck.append(f"seed {seed} {point.label}: {exc}")
                continue
            assert result.n_initiations == initiations - 1, (seed, point.label)
    assert not stuck, f"{len(stuck)} points never ended: {stuck}"
