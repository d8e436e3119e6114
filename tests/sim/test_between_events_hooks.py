"""Keyed between-events hooks: multiplexing, cadences, pickling — and
the one-loop equivalence table.

``set_between_events_hook`` lets several consumers (the snapshotter
under ``"snapshot"``, the timeseries sampler under ``"timeseries"``)
share the kernel's single hook slot; each still fires at its own
``check_every`` cadence.

The kernel has one dispatch loop; hooks, the profiler, the burn hook and
``step()`` are ways of driving or observing it, none of which the
simulation may notice. The table at the bottom runs one seeded system
under every one of them and demands identical results.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import PointToPointWorkloadConfig, RunConfig, SystemConfig
from repro.core.runner import ExperimentRunner
from repro.core.system import MobileSystem
from repro.errors import SimulationError
from repro.obs.profiler import KernelProfiler
from repro.sim.kernel import Simulator
from repro.sim.shard import ShardedSimulator
from repro.workload.point_to_point import PointToPointWorkload


def _load(sim: Simulator, n: int) -> None:
    for i in range(n):
        sim.schedule(float(i + 1), lambda: None)


def test_single_hook_fires_at_cadence(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append(sim.events_processed), 3)
    _load(sim, 12)
    sim.run_until_idle()
    assert fired == [3, 6, 9, 12]


def test_two_hooks_fire_at_own_cadences(sim):
    counts = {"a": 0, "b": 0}
    sim.set_between_events_hook("a", lambda: counts.update(a=counts["a"] + 1), 2)
    sim.set_between_events_hook("b", lambda: counts.update(b=counts["b"] + 1), 3)
    _load(sim, 12)
    sim.run_until_idle()
    assert counts == {"a": 6, "b": 4}


def test_snapshot_hook_is_the_snapshot_key(sim):
    fired = []
    sim.set_between_events_hook("snapshot", lambda: fired.append("snap"), 4)
    sim.set_between_events_hook("timeseries", lambda: fired.append("ts"), 4)
    _load(sim, 8)
    sim.run_until_idle()
    # registration order within a shared firing point is deterministic
    assert fired == ["snap", "ts", "snap", "ts"]
    sim.set_between_events_hook("snapshot", None)
    fired.clear()
    _load(sim, 4)
    sim.run_until_idle()
    assert fired == ["ts"]


def test_removing_one_hook_keeps_the_other(sim):
    counts = {"a": 0, "b": 0}
    sim.set_between_events_hook("a", lambda: counts.update(a=counts["a"] + 1), 1)
    sim.set_between_events_hook("b", lambda: counts.update(b=counts["b"] + 1), 1)
    _load(sim, 5)
    sim.run_until_idle()
    sim.set_between_events_hook("a", None)
    _load(sim, 5)
    sim.run_until_idle()
    assert counts == {"a": 5, "b": 10}


def test_hook_can_uninstall_itself_mid_run(sim):
    fired = []

    def hook() -> None:
        fired.append(sim.events_processed)
        sim.set_between_events_hook("once", None)

    sim.set_between_events_hook("once", hook, 2)
    _load(sim, 10)
    sim.run_until_idle()
    assert fired == [2]


def test_reinstalling_a_key_replaces_its_cadence(sim):
    fired = []
    sim.set_between_events_hook("a", lambda: fired.append("slow"), 100)
    sim.set_between_events_hook("a", lambda: fired.append("fast"), 1)
    _load(sim, 3)
    sim.run_until_idle()
    assert fired == ["fast"] * 3


def test_check_every_must_be_positive(sim):
    with pytest.raises(ValueError):
        sim.set_between_events_hook("a", lambda: None, 0)


class _Tally:
    """A picklable hook that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1


def test_only_the_snapshot_hook_is_dropped_at_pickle(sim):
    """Keyed hooks travel with the kernel (the timeseries sampler's is
    part of the system) and fire at their cadence after the load; the
    snapshotter's is dropped, and its restore re-arms it."""
    sim.set_between_events_hook("a", _Tally(), 2)
    sim.set_between_events_hook("snapshot", lambda: None, 3)
    restored = pickle.loads(pickle.dumps(sim))
    assert list(restored._hooks) == ["a"]
    _load(restored, 4)
    restored.run_until_idle()
    assert restored._hooks["a"][0].calls == 2


# ---------------------------------------------------------------------------
# loop parity: every way of driving the kernel keeps the same books


KERNELS = pytest.mark.parametrize("make_sim", [
    pytest.param(Simulator, id="sequential"),
    pytest.param(lambda: ShardedSimulator(n_shards=2), id="sharded"),
])


@KERNELS
def test_self_uninstalling_hook_keeps_the_callers_budget(make_sim):
    sim = make_sim()

    def once() -> None:
        sim.set_between_events_hook("once", None)

    sim.set_between_events_hook("once", once, 2)
    _load(sim, 10)
    with pytest.raises(SimulationError, match=r"exceeded max_events=5 "):
        sim.run(max_events=5)
    assert sim.events_processed == 5
    assert sim.pending_events == 5  # the unaffordable event went back


def _churn(sim: Simulator) -> None:
    """Plain events, restarted timers and a burst of cancellations."""
    timer = [sim.schedule(0.5, lambda: None)]

    def rearm() -> None:
        timer[0].cancel()
        timer[0] = sim.schedule(0.5, lambda: None)

    for i in range(40):
        sim.schedule(float(i), rearm)
    for event in [sim.schedule(100.0 + i, lambda: None) for i in range(20)]:
        event.cancel()


@KERNELS
def test_profiled_and_stepped_runs_keep_the_same_books(make_sim):
    def books(drive: str):
        sim = make_sim()
        _churn(sim)
        if drive == "profiler":
            sim.set_profiler(KernelProfiler())
        if drive == "step":
            while sim.step():
                pass
        else:
            sim.run_until_idle()
        return (sim.events_processed, sim.now, len(sim._free),
                sim.cancelled_pending, sim.pending_events)

    plain = books("run")
    assert plain[2] > 0  # handles were recycled at all
    assert books("profiler") == plain
    assert books("step") == plain


# ---------------------------------------------------------------------------
# the equivalence table

SHAPES = {
    "16p": dict(n_processes=16, seed=20260806),
    "64p-8cell-shards2": dict(n_processes=64, n_mss=8, shards=2, seed=11),
}
DRIVES = ("hook-every-7", "self-uninstalling-hook", "profiler", "burn", "step")


def _drive(shape: str, drive: str):
    system = MobileSystem(SystemConfig(**SHAPES[shape]), MutableCheckpointProtocol())
    workload = PointToPointWorkload(
        system, PointToPointWorkloadConfig(mean_send_interval=15.0)
    )
    run_config = RunConfig(
        max_initiations=3, warmup_initiations=1,
        # a time limit makes the runner hand-step the kernel
        time_limit=1e9 if drive == "step" else None,
    )
    sim = system.sim
    fired, profiler = [], None
    if drive == "hook-every-7":
        sim.set_between_events_hook(
            "probe", lambda: fired.append(sim.events_processed), 7
        )
    elif drive == "self-uninstalling-hook":
        def once() -> None:
            fired.append(sim.events_processed)
            sim.set_between_events_hook("probe", None)

        sim.set_between_events_hook("probe", once, 7)
    elif drive == "profiler":
        profiler = KernelProfiler()
        sim.set_profiler(profiler)
    elif drive == "burn":
        sim.set_burn(lambda: fired.append(None))
    ExperimentRunner(system, workload, run_config).run(max_events=10_000_000)
    signature = (
        sim.events_processed, sim.now, system.metrics.snapshot(),
        sim.trace.content_hash(),
    )
    return signature, fired, profiler


@functools.lru_cache(maxsize=None)
def _bare(shape: str):
    return _drive(shape, "bare")[0]


@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("shape", SHAPES)
def test_every_drive_yields_the_bare_run(shape, drive):
    signature, fired, profiler = _drive(shape, drive)
    assert signature == _bare(shape)
    events = signature[0]
    if drive == "hook-every-7":
        assert fired == list(range(7, events + 1, 7))
    elif drive == "self-uninstalling-hook":
        assert fired == [7]
    elif drive == "burn":
        assert len(fired) == events
    elif drive == "profiler":
        assert profiler.dispatched == events
