"""Bulk construction pauses the cyclic collector and puts it back.

Building a ``MobileSystem``, ``capture`` and ``restore`` allocate many
objects and free none, so they run with the process-wide collector off.
Each must leave it as it found it — on, or off because the caller turned
it off — also when it raises, and the pause must not hide garbage:
``gc.collect()`` right after each finds nothing.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.campaign.engine import build_point_runtime
from repro.campaign.spec import RunPoint
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.core.config import SystemConfig
from repro.core.system import MobileSystem
from repro.errors import SnapshotError
from repro.sim.gcpause import _paused_collector
from repro.snapshot.state import capture, restore

#: ``gc.isenabled()`` as seen from inside each site's body
_SEEN: list = []


class _Probe:
    """A wave observer that notes the collector's state while it is
    pickled and unpickled."""

    def __call__(self, now, kind, fields) -> None:
        pass

    def __getstate__(self):
        _SEEN.append(gc.isenabled())
        return {"probe": True}

    def __setstate__(self, state) -> None:
        _SEEN.append(gc.isenabled())


class _ProbedProtocol(MutableCheckpointProtocol):
    """Notes the collector's state per process built, and raises at
    ``raise_at`` to break a build half way."""

    def __init__(self, raise_at=None) -> None:
        super().__init__()
        self.raise_at = raise_at

    def create_process(self, env):
        _SEEN.append(gc.isenabled())
        if env.pid == self.raise_at:
            raise RuntimeError("planted failure mid-build")
        return super().create_process(env)


def _runner(n: int, observer):
    _, _, runner = build_point_runtime(RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 15.0},
        system_params={"n_processes": n, "trace_messages": False},
        run_params={"max_initiations": 2}, seed=11,
    ))
    runner.system.protocol.observers.append(observer)
    return runner


def _build(n: int, fail: bool):
    protocol = _ProbedProtocol(raise_at=n // 2 if fail else None)
    return lambda: MobileSystem(SystemConfig(n_processes=n), protocol), RuntimeError


def _capture(n: int, fail: bool):
    runner = _runner(n, (lambda now, kind, fields: None) if fail else _Probe())
    return lambda: capture(runner), SnapshotError


def _restore(n: int, fail: bool):
    payload = b"not a pickle" if fail else capture(_runner(n, _Probe()))
    return lambda: restore(payload), SnapshotError


SITES = {"build": _build, "capture": _capture, "restore": _restore}


@pytest.mark.parametrize("site", sorted(SITES))
def test_the_site_pauses_the_collector_and_puts_back_what_it_found(site):
    prepare = SITES[site]
    try:
        for found in (True, False):
            for fail in (False, True):
                (gc.enable if found else gc.disable)()
                act, error = prepare(16, fail)
                _SEEN.clear()
                if fail:
                    with pytest.raises(error):
                        act()
                else:
                    act()
                    assert _SEEN and not any(_SEEN), "the collector ran in the body"
                assert gc.isenabled() is found, (found, fail)
        # The premise: what the pause held back was never garbage.
        gc.disable()
        act, _ = prepare(256, False)
        gc.collect()
        built = act()
        assert gc.collect() == 0
        del built
    finally:
        gc.enable()


def test_overlapping_pauses_in_threads_leave_the_collector_on():
    """Pauses that open and close in several threads at once: the last
    to close puts back what the first found, however they interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def pause_often() -> None:
        for _ in range(20000):
            with _paused_collector():
                pass

    try:
        threads = [threading.Thread(target=pause_often) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable()
