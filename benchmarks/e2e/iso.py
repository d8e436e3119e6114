"""Isolated micro-drives: one public function per layer, timed alone.

These run untraced, once per traced invocation, on inputs they build
themselves, so they read the same on every workload; they answer "what
does this layer's primitive cost" without a simulation around it. Times
are corrected for host speed like every other (see hostspeed.py).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict

from hostspeed import timed
from repro.analysis.vector_clock import VectorClock
from repro.campaign.engine import build_point_runtime
from repro.campaign.spec import RunPoint
from repro.campaign.store import PointRecord, ResultStore
from repro.core.results import RunResult
from repro.service.db import ResultDB
from repro.sim.kernel import Simulator


def _median_of(repeats: int, fn: Callable[[], float]) -> float:
    return statistics.median(fn() for _ in range(repeats))


def _noop() -> None:
    return None


def null_dispatch_us(events: int) -> float:
    """A bare kernel popping no-op events: the floor under every run."""
    def once() -> float:
        sim = Simulator()
        for i in range(events):
            sim.schedule(i * 1e-6, _noop)
        gc.collect()
        with timed() as run:
            sim.run()
        return run.seconds / events * 1e6
    return _median_of(3, once)


def merge_us(n: int, merges: int) -> float:
    def once() -> float:
        mine, theirs = VectorClock(0, n), VectorClock(1, n)
        for _ in range(5):
            theirs.tick()
        stamp = theirs.snapshot()
        with timed() as loop:
            for _ in range(merges):
                mine.merge(stamp)
        return loop.seconds / merges * 1e6
    return _median_of(3, once)


def _point(n: int, seed: int) -> RunPoint:
    return RunPoint(
        protocol="mutable", workload="p2p",
        workload_params={"mean_send_interval": 10.0},
        system_params={"n_processes": n, "n_mss": 8 if n > 16 else 1,
                       "trace_messages": False},
        run_params={"max_initiations": 4, "warmup_initiations": 1},
        seed=seed,
    )


def build_ms(n: int, seed: int, repeats: int) -> float:
    def once() -> float:
        gc.collect()
        with timed() as build:
            build_point_runtime(_point(n, seed))
        return build.seconds * 1e3
    return _median_of(repeats, once)


def store_us(make_store: Callable[[str], Any], filename: str, records: int, tmp: str) -> Dict[str, float]:
    """Per-record append and lookup cost of one result-store backend."""
    workdir = tempfile.mkdtemp(prefix="store-", dir=tmp)
    batch = [
        PointRecord(
            point_hash=f"{i:032x}", status="ok",
            point={"protocol": "mutable", "seed": i},
            result={"protocol": "mutable", "n_processes": 2, "seed": i,
                    "initiations": [], "counters": {}, "total_blocked_time": 0.0,
                    "sim_time": 1.0, "wall_events": 10},
        )
        for i in range(records)
    ]
    try:
        store = make_store(os.path.join(workdir, filename))
        with timed() as appends:
            for record in batch:
                store.append(record)
        with timed() as lookups:
            for record in batch:
                if store.get(record.point_hash) is None:
                    raise AssertionError("lookup missed a written record")
        store.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"append_us": appends.seconds / records * 1e6,
            "get_us": lookups.seconds / records * 1e6}


def pool_start_ms(workers: int) -> float:
    """Fork a pool the way the engine does, get one answer back, shut it down."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with timed() as start, ctx.Pool(processes=workers) as pool:
        pool.map(abs, range(workers))
    return start.seconds * 1e3


def import_s(src: str) -> float:
    """A fresh interpreter importing the CLI: the cold-start floor."""
    env = dict(os.environ, PYTHONPATH=src)
    with timed() as child:
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                       check=True, timeout=120)
    return child.seconds


def run_all(seed: int, smoke: bool, src: str, tmp: str, workers: int) -> Dict[str, float]:
    scale = 10 if smoke else 1
    system, _, runner = build_point_runtime(_point(16, seed))
    result = runner.run()
    document = result.to_dict()

    def timed_ms(fn: Callable[[], Any], calls: int) -> float:
        gc.collect()
        with timed() as loop:
            for _ in range(calls):
                fn()
        return loop.seconds / calls * 1e3

    def flush() -> None:
        system.sim.flush_metrics()
        system.metrics.snapshot()

    jsonl = store_us(ResultStore, "results.jsonl", 300 // scale, tmp)
    sqlite = store_us(ResultDB, "results.sqlite", 300 // scale, tmp)
    return {
        "sim.kernel.null_dispatch_us": null_dispatch_us(200_000 // scale),
        "clock.merge_us_n1024": merge_us(1024, 20_000 // scale),
        "core.system.build_ms_16p": build_ms(16, seed, 5),
        "core.system.build_ms_1024p": build_ms(1024, seed, 3),
        "core.system.build_ms_4096p": build_ms(4096, seed, 1 if smoke else 3),
        "core.results.to_dict_ms": timed_ms(result.to_dict, 200 // scale),
        "core.results.from_dict_ms": timed_ms(
            lambda: RunResult.from_dict(document), 200 // scale),
        "obs.registry.flush_ms": timed_ms(flush, 200 // scale),
        "cli.import_s": import_s(src),
        "campaign.engine.pool_start_ms": pool_start_ms(workers),
        "campaign.store.append_us": jsonl["append_us"],
        "campaign.store.get_us": jsonl["get_us"],
        "service.db.append_us": sqlite["append_us"],
        "service.db.get_us": sqlite["get_us"],
    }
