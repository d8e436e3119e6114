"""The four benchmark workloads, driven through the program's public API.

Each workload is a fixed list of *operations* built from ``--seed``. One
**pass** builds fresh inputs (``setup``), runs every operation once
(``run_pass``) and checks the simulated results; a run repeats passes
for ``--seconds`` and reports medians. Simulated results never depend
on the host, so every pass of a run must produce the same digest.

Why these four (the README has the long form):

* ``paper16_sweep`` — the paper's §5.1 grid at n=16, trace OFF: kernel,
  net and workload do the work, the vector clock almost none.
* ``scale_ladder`` — 1024p/4096p fixed event budgets, the same rung on
  two shards, snapshot write + resume: clock merges, array state and
  memory dominate, the kernel is a small share.
* ``trace_export`` — a DEBUG-traced run, then export, hash, re-read and
  verify: trace, export and the checkers do the work.
* ``grid_service`` — the sweep grid through ``CampaignEngine`` and a live
  HTTP ``CampaignService`` (one all-miss job, then all-hit resubmits):
  store, cache, jobs, server and result serialisation do the work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from hostspeed import Timed, timed
from repro.analysis.consistency import assert_line_consistent, latest_permanent_line
from repro.analysis.metrics import committed_stats
from repro.campaign.engine import CampaignEngine, build_point_runtime
from repro.campaign.spec import CampaignSpec, RunPoint
from repro.checkpointing.types import checkpoint_ids_state, restore_checkpoint_ids
from repro.errors import SimulationError
from repro.explore.invariants import check_invariants
from repro.service.client import ServiceClient
from repro.service.db import ResultDB
from repro.service.jobs import CampaignService
from repro.service.server import make_server
from repro.sim.export import read_trace, save_trace
from repro.snapshot import Snapshotter, resume_run

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: scratch space inside the checkout (the benchmark writes nowhere else)
TMP_ROOT = ROOT / ".bench_tmp"

NPROC = os.cpu_count() or 1
#: one client, one request in flight: a closed loop of 1
GENERATOR_THREADS = 1

#: ``full`` is what BENCHMARK.json measures; ``smoke`` only proves the
#: plumbing (same operations, tiny budgets).
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "grid_initiations": 8, "grid_warmup": 1, "cli_initiations": 8,
        "ladder_n": 1024, "ladder_events": 40_000, "snapshot_at": 10_000,
        "ladder_big_n": 4096, "ladder_big_events": 20_000, "cells": 8,
        "chunk_events": 10_000,
        "export_initiations": 3,
        "service_initiations": 4, "service_warmup": 1, "hits": 20,
    },
    "smoke": {
        "grid_initiations": 4, "grid_warmup": 1, "cli_initiations": 2,
        "ladder_n": 256, "ladder_events": 20_000, "snapshot_at": 5_000,
        "ladder_big_n": 1024, "ladder_big_events": 10_000, "cells": 8,
        "chunk_events": 5_000,
        "export_initiations": 2,
        "service_initiations": 3, "service_warmup": 1, "hits": 8,
    },
}


#: Inputs are generated from ``--seed`` folded into this verified range.
SEED_SPACE = 300
#: Seeds below SEED_SPACE on which one Koo-Toueg point of a grid never
#: ends: a wave aborted by a concurrent initiation is re-joined by late
#: requests and chases its own abort for ever (ROADMAP item 4 names the
#: hole). Found by running the grid at 22, 8, 4 and 3 initiations (the
#: sizes here use 8, 4 and 3) on every seed in the range; the benchmark
#: measures, it does not fix, so these seeds are stepped over.
LIVELOCK_SEEDS = frozenset({
    4, 39, 62, 92, 128, 135, 147, 201, 205, 207, 212, 226, 280, 283,  # 22 or 8 initiations
    9, 54, 98, 118, 144, 202, 220, 236, 254, 278,                     # 4 or 3 initiations
})
#: no verified point needs more than 130k events; a runaway fails fast
POINT_MAX_EVENTS = 2_000_000


def input_seed(seed: int) -> int:
    """The seed the inputs are built from: same ``--seed``, same inputs."""
    seed %= SEED_SPACE
    while seed in LIVELOCK_SEEDS:
        seed = (seed + 1) % SEED_SPACE
    return seed


class PassAborted(Exception):
    """An operation raised; the rest of the pass cannot run."""


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def sim_digest(system: Any) -> str:
    """sha256 of everything simulated: events, clock, metrics, trace."""
    sim = system.sim
    sim.flush_metrics()
    return sha(
        str(sim.events_processed), repr(sim.now),
        canonical(system.metrics.snapshot()), sim.trace.content_hash(),
    )


def checkpoint_counts(stats: List[Any], system_msgs: float, blocked_s: float) -> Dict[str, float]:
    """The simulated checkpointing counts the paper's evaluation rests on."""
    return {
        "system_msgs": float(system_msgs),
        # every tentative checkpoint beyond the initiator's own was forced
        "forced_checkpoints": float(sum(s.tentative_count for s in stats) - len(stats)),
        "mutable_taken": float(sum(s.mutable_count for s in stats)),
        "mutable_discarded": float(sum(s.redundant_mutables for s in stats)),
        "blocked_process_s": float(blocked_s),
    }


def system_counts(system: Any) -> Dict[str, float]:
    return checkpoint_counts(
        committed_stats(system.sim.trace),
        system.metrics.value("system_messages"),
        sum(p.total_blocked_time for p in system.processes.values()),
    )


def add_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0.0) + value


class Ops:
    """Operation accounting for one pass: attempts, failures, stage times."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: stage name -> seconds of each of its operations, in order
        #: (corrected for host speed, see hostspeed.py) and as measured
        self.times: Dict[str, List[float]] = {}
        self.raw_times: Dict[str, List[float]] = {}

    def fail(self, message: str) -> None:
        self.failed = min(self.failed + 1, self.attempted)
        self.errors.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    @contextmanager
    def op(self, stage: str, layer: str, request: Optional[str] = None) -> Iterator[Timed]:
        """Time one operation; an exception fails it and aborts the pass.

        Every operation starts from the same collector state: garbage is
        collected and what survives is frozen, so a full collection inside
        the operation walks only what the operation itself allocated, not
        the other systems of the pass (one walk over a live 4096p system
        costs more than the whole 1024p rung). The run loop thaws and
        collects after each pass.
        """
        self.attempted += 1
        gc.collect()
        gc.freeze()
        with timed() as timer, self.tracer.stage(stage, layer, request):
            try:
                yield timer
            except Exception as exc:  # noqa: BLE001 - failures become counts
                self.fail(f"{stage}: {type(exc).__name__}: {exc}")
                raise PassAborted(stage) from exc
        self.times.setdefault(stage, []).append(timer.seconds)
        self.raw_times.setdefault(stage, []).append(timer.raw)

    def seconds(self, stage: str) -> float:
        return sum(self.times[stage])


def grid_spec(seed: int, initiations: int, warmup: int) -> CampaignSpec:
    """The §5.1 grid: 3 protocols x (4 p2p rates + 2 group rates), 16 MHs."""
    workloads: List[Dict[str, Any]] = [
        {"kind": "p2p", "mean_send_interval": 1.0 / rate}
        for rate in (0.01, 0.02, 0.05, 0.1)
    ]
    workloads += [
        {"kind": "group", "mean_send_interval": 1.0 / rate, "n_groups": 4,
         "intra_inter_ratio": 1000.0}
        for rate in (0.02, 0.05)
    ]
    return CampaignSpec(
        name="paper16",
        protocols=["mutable", "koo-toueg", "elnozahy"],
        workloads=workloads,
        configs=[{"n_processes": 16, "trace_messages": False}],
        seed=seed,
        run={"max_initiations": initiations, "warmup_initiations": warmup},
        max_events=POINT_MAX_EVENTS,
    )


def is_budget_stop(exc: SimulationError) -> bool:
    """True for the kernel's ``max_events`` stop, false for a real error."""
    return "max_events" in str(exc)


def run_chunks(ops: Ops, stage: str, request: str, runner: Any, started: bool,
               events: Optional[int], chunk: int) -> Any:
    """Drive ``runner`` in operations of ``chunk`` events each.

    With ``events`` the run stops after exactly that many (it must not end
    earlier); with ``None`` it runs to its end and the result is returned.
    Chunks make one long run into many like-for-like operations, so a
    burst of host noise costs one chunk's sample, not the rung's. The
    kernel puts the event it stopped at back, so a chunked run retraces
    the unbroken one event for event (the shards=2 rung checks that).
    """
    done = 0
    while events is None or done < events:
        if done >= POINT_MAX_EVENTS:
            raise SimulationError(f"runaway: no end after {done} events")
        step = chunk if events is None else min(chunk, events - done)
        with ops.op(stage, "core", request=request):
            try:
                result = runner.resume(max_events=step) if started else runner.run(max_events=step)
            except SimulationError as exc:
                if not is_budget_stop(exc):
                    raise
            else:
                if events is not None:
                    raise SimulationError("run finished before its event budget")
                return result
        started = True
        done += step
    return None


class Workload:
    """Base: sizes, seed, scratch directory, optional planted burn."""

    name = ""
    #: Stages that keep both cores busy. The sizing host's speed with two
    #: busy cores flips between two values a factor of two apart, for
    #: minutes at a time and unseen by the one-core host-speed probe, so
    #: these stages are reported (per_layer) but kept out of ``pass_s``.
    unsteady_stages: Tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Dict[str, Any],
                 burn: Optional[Callable[[], None]] = None) -> None:
        self.seed = input_seed(seed)
        self.sizes = sizes
        self.burn = burn
        self._tmp: Optional[str] = None

    @property
    def tmp(self) -> str:
        if self._tmp is None:
            TMP_ROOT.mkdir(exist_ok=True)
            self._tmp = tempfile.mkdtemp(prefix=f"{self.name}-", dir=TMP_ROOT)
        return self._tmp

    def build(self, point: RunPoint) -> Any:
        """(system, runner) for ``point``, with the planted burn if any."""
        system, _, runner = build_point_runtime(point)
        if self.burn is not None:
            system.sim.set_burn(self.burn)
        return system, runner

    def setup(self) -> Any:
        """Build everything the first operation needs; returns the context."""
        return None

    def run_pass(self, ctx: Any, ops: Ops) -> Dict[str, Any]:
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        """Release what ``setup`` opened for one pass."""

    def differentials(self) -> Dict[str, float]:
        """Extra untraced runs that only the per-layer table needs."""
        return {}

    def close(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None


class Paper16Sweep(Workload):
    name = "paper16_sweep"

    def setup(self) -> List[RunPoint]:
        sizes = self.sizes
        return grid_spec(self.seed, sizes["grid_initiations"], sizes["grid_warmup"]).expand()

    def run_pass(self, points: List[RunPoint], ops: Ops) -> Dict[str, Any]:
        events = 0
        digests: List[str] = []
        counts: Dict[str, float] = {}
        per_protocol: Dict[str, Dict[str, float]] = {}
        net = {"wired_msgs": 0.0, "wireless_msgs": 0.0}
        for point in points:
            with ops.op("grid.point", "campaign", request=point.point_hash):
                system, runner = self.build(point)
                result = runner.run(max_events=point.max_events)
            events += result.wall_events
            digests.append(sim_digest(system))
            point_counts = system_counts(system)
            add_counts(counts, point_counts)
            add_counts(per_protocol.setdefault(point.protocol, {}), point_counts)
            net["wired_msgs"] += system.metrics.value("net.wired.msgs")
            net["wireless_msgs"] += system.metrics.value("net.wireless.msgs")
        grid_s = ops.seconds("grid.point")

        command = [
            sys.executable, "-m", "repro.cli", "run", "--protocol", "mutable",
            "--processes", "16", "--rate", "0.02",
            "--initiations", str(self.sizes["cli_initiations"]),
            "--seed", str(self.seed),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with ops.op("cli.run", "cli", request="cli") as cli:
            done = subprocess.run(command, env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
        digests.append(sha(done.stdout))
        return {
            "values": {
                "events_per_s": events / grid_s,
                "cli_cold_run_s": cli.seconds,
            },
            "events": events,
            "rate_stages": ["grid.point"],
            "digest": sha(*digests),
            "counts": counts,
            "extra": {**net, "per_protocol": per_protocol},
        }


class ScaleLadder(Workload):
    name = "scale_ladder"

    def _point(self, n: int, shards: int) -> RunPoint:
        return RunPoint(
            protocol="mutable", workload="p2p",
            workload_params={"mean_send_interval": 1.0},
            system_params={"n_processes": n, "n_mss": self.sizes["cells"],
                           "trace_messages": False, "shards": shards},
            # never reached: the rungs stop on their event budgets
            run_params={"max_initiations": 10**6, "warmup_initiations": 1},
            seed=self.seed,
        )

    def _rung(self, n: int, shards: int) -> Any:
        system, runner = self.build(self._point(n, shards))
        return system, runner, checkpoint_ids_state()

    def setup(self) -> Dict[str, Any]:
        sizes = self.sizes
        return {
            "seq": self._rung(sizes["ladder_n"], 1),
            "shards2": self._rung(sizes["ladder_n"], 2),
            "big": self._rung(sizes["ladder_big_n"], 1),
        }

    def run_pass(self, ctx: Dict[str, Any], ops: Ops) -> Dict[str, Any]:
        sizes = self.sizes
        budget, snap_at, chunk = (sizes["ladder_events"], sizes["snapshot_at"],
                                  sizes["chunk_events"])
        system, runner, ids = ctx["seq"]
        snap_dir = os.path.join(self.tmp, "snap")

        # Checkpoint ids come from a module-global counter that every
        # MobileSystem build resets. The three systems are built up front
        # (building is set-up), so before a system runs the counter is put
        # back to where its build left it - what snapshot restore does -
        # and each rung numbers its checkpoints as if built just now.
        restore_checkpoint_ids(ids)
        run_chunks(ops, "ladder.seq", "1024p", runner, False, snap_at, chunk)
        with ops.op("snapshot.write", "snapshot", request="snapshot") as write:
            path = Snapshotter(runner, None, snap_dir).take()
        at_snapshot = sim_digest(system)
        payload_mb = os.path.getsize(path) / 1e6
        run_chunks(ops, "ladder.seq", "1024p", runner, True, budget - snap_at, chunk)
        seq_digest = sim_digest(system)
        counts = system_counts(system)
        net = {"wired_msgs": system.metrics.value("net.wired.msgs"),
               "wireless_msgs": system.metrics.value("net.wireless.msgs")}

        with ops.op("snapshot.resume", "snapshot", request="snapshot") as resume:
            image = resume_run(path)
        ops.check(sim_digest(image.system) == at_snapshot,
                  "resumed image differs from the system it was taken from")
        del image
        os.unlink(path)

        # One unbroken operation: the sharded kernel keeps window state
        # across events, and an unbroken run is what the chunked
        # sequential rung has to equal.
        sharded, sharded_runner, ids = ctx["shards2"]
        restore_checkpoint_ids(ids)
        run_chunks(ops, "ladder.shards2", "1024p-shards2", sharded_runner, False,
                   budget, budget)
        ops.check(sim_digest(sharded) == seq_digest,
                  "shards=2 digest differs from the sequential rung")
        report = sharded.sim.shard_report()

        big, big_runner, ids = ctx["big"]
        restore_checkpoint_ids(ids)
        big_budget = sizes["ladder_big_events"]
        run_chunks(ops, "ladder.big", "4096p", big_runner, False, big_budget, chunk // 2)
        add_counts(counts, system_counts(big))
        seq_rate = budget / ops.seconds("ladder.seq")
        shards2_rate = budget / ops.seconds("ladder.shards2")
        return {
            "values": {
                "events_per_s": seq_rate,
                "events_per_s_4096p": big_budget / ops.seconds("ladder.big"),
                "shards2_events_per_s": shards2_rate,
                "snapshot_write_ms": write.seconds * 1e3,
                "snapshot_resume_ms": resume.seconds * 1e3,
            },
            "events": budget,
            "rate_stages": ["ladder.seq"],
            "digest": sha(seq_digest, at_snapshot, sim_digest(big)),
            "counts": counts,
            "extra": {
                **net,
                "snapshot_payload_mb": payload_mb,
                "shard_windows": float(report["windows"]),
                "shard_envelopes": float(report["envelopes"]),
                "shard_violations": float(report["lookahead_violations"]),
                "shard_stall_s": float(report["stall_seconds"]),
                "shard_ratio_vs_sequential": shards2_rate / seq_rate,
            },
        }


class TraceExport(Workload):
    name = "trace_export"

    def _point(self, trace_messages: bool) -> RunPoint:
        return RunPoint(
            protocol="mutable", workload="p2p",
            workload_params={"mean_send_interval": 1.0},
            system_params={"n_processes": 16, "trace_messages": trace_messages},
            run_params={"max_initiations": self.sizes["export_initiations"],
                        "warmup_initiations": 1},
            seed=self.seed,
        )

    def setup(self) -> Any:
        return self.build(self._point(True))

    def run_pass(self, ctx: Any, ops: Ops) -> Dict[str, Any]:
        system, runner = ctx
        trace = system.sim.trace
        path = os.path.join(self.tmp, "trace.jsonl")
        result = run_chunks(ops, "export.run", "debug-run", runner, False, None,
                            self.sizes["chunk_events"])
        run_s = ops.seconds("export.run")
        with ops.op("export.save", "sim.export", request="save") as save:
            records = save_trace(trace, path)
        with ops.op("export.hash", "sim.trace", request="hash") as hashing:
            content_hash = trace.content_hash()
        with ops.op("export.read", "sim.export", request="read") as read:
            loaded = read_trace(path)
        with ops.op("export.invariants", "explore.invariants", request="verify") as invariants:
            violations = check_invariants(loaded)
        ops.check(not violations, f"invariant violations: {violations[:3]}")
        with ops.op("export.consistency", "analysis.consistency", request="verify") as consistency:
            line = latest_permanent_line(system.all_stable_storages(), system.processes)
            assert_line_consistent(loaded, line)
        ops.check(len(loaded) == records == len(trace), "re-read trace lost records")
        ops.check(loaded.content_hash() == content_hash,
                  "re-read trace hashes differently from the live one")
        size = os.path.getsize(path)
        os.unlink(path)
        return {
            "values": {
                "events_per_s": result.wall_events / run_s,
                "export_records_per_s": records / save.seconds,
                "verify_s": read.seconds + invariants.seconds + consistency.seconds,
            },
            "events": result.wall_events,
            "rate_stages": ["export.run"],
            "digest": sim_digest(system),
            "counts": system_counts(system),
            "extra": {
                "wired_msgs": system.metrics.value("net.wired.msgs"),
                "wireless_msgs": system.metrics.value("net.wireless.msgs"),
                "trace_records": float(records),
                "export_bytes": float(size),
                "export_save_ms": save.seconds * 1e3,
                "export_hash_ms": hashing.seconds * 1e3,
                "export_read_ms": read.seconds * 1e3,
                "invariants_ms": invariants.seconds * 1e3,
                "consistency_ms": consistency.seconds * 1e3,
            },
        }

    def differentials(self) -> Dict[str, float]:
        """The same run at INFO: what message-level tracing costs."""
        timings = {}
        for level, trace_messages in (("debug", True), ("info", False)):
            _, runner = self.build(self._point(trace_messages))
            gc.collect()
            with timed() as run:
                runner.run()
            timings[level] = run.seconds
        return {"debug_cost_ratio": timings["debug"] / timings["info"]}


class GridService(Workload):
    name = "grid_service"
    unsteady_stages = ("engine.pool",)

    def _spec(self) -> CampaignSpec:
        sizes = self.sizes
        return grid_spec(self.seed, sizes["service_initiations"], sizes["service_warmup"])

    def _start(self, data_dir: str, **options: Any) -> Dict[str, Any]:
        # One client thread competes with the service's workers for the
        # cores, so the pool gets nproc - 1 of them.
        service = CampaignService(data_dir, workers=max(1, NPROC - 1), **options)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return {"service": service, "server": server, "thread": thread,
                "client": ServiceClient(f"http://{host}:{port}")}

    @staticmethod
    def _stop(ctx: Dict[str, Any]) -> None:
        ctx["server"].shutdown()
        ctx["server"].server_close()
        ctx["thread"].join(timeout=10)
        ctx["service"].close()

    def setup(self) -> Dict[str, Any]:
        data_dir = tempfile.mkdtemp(prefix="data-", dir=self.tmp)
        spec = self._spec()
        ctx = self._start(os.path.join(data_dir, "service"))
        ctx.update(spec=spec, points=spec.expand(), data_dir=data_dir)
        return ctx

    def teardown(self, ctx: Dict[str, Any]) -> None:
        self._stop(ctx)
        shutil.rmtree(ctx["data_dir"], ignore_errors=True)

    @staticmethod
    def _round_trip(client: ServiceClient, spec_doc: Dict[str, Any]) -> Dict[str, Any]:
        job = client.submit(spec=spec_doc)
        status = client.wait(job["job_id"], poll_seconds=0.01)
        if status["status"] != "done":
            raise RuntimeError(f"job {job['job_id']} ended {status['status']}")
        return client.results(job["job_id"])

    @staticmethod
    def _stable(document: Dict[str, Any]) -> str:
        """A /results document minus what legitimately differs per job."""
        rows = [{k: v for k, v in row.items() if k != "wall_time"}
                for row in document["rows"]]
        return canonical({"rows": rows, "merged_metrics": document["merged_metrics"]})

    def run_pass(self, ctx: Dict[str, Any], ops: Ops) -> Dict[str, Any]:
        spec, points, client = ctx["spec"], ctx["points"], ctx["client"]
        spec_doc = spec.to_dict()

        def engine_doc(report: Any) -> str:
            return self._stable({
                "rows": report.rows(),
                "merged_metrics": report.merged_metrics().snapshot(),
            })

        # The same campaign twice: one worker (in this process, gated) and
        # nproc workers (a pool, reported only, see ``unsteady_stages``).
        reports = {}
        for stage, workers in (("engine.serial", 1), ("engine.pool", NPROC)):
            with ops.op(stage, "campaign", request=spec.campaign_hash):
                with ResultDB(os.path.join(ctx["data_dir"], f"{stage}.sqlite")) as store:
                    reports[stage] = CampaignEngine(spec, store=store, workers=workers).run()
            ops.check(reports[stage].ok and reports[stage].executed == len(points),
                      f"{stage}: {len(reports[stage].failed)} failed points")
        report, pooled = reports["engine.serial"], reports["engine.pool"]
        ops.check(engine_doc(pooled) == engine_doc(report),
                  f"workers={NPROC} results differ from workers=1")
        serial_s, pool_s = ops.seconds("engine.serial"), ops.seconds("engine.pool")
        results = report.results()
        events = sum(r.wall_events for r in results)
        counts: Dict[str, float] = {}
        for result in results:
            add_counts(counts, checkpoint_counts(
                result.initiations, result.counters.get("system_messages", 0.0),
                result.total_blocked_time))
        digest = sha(*(canonical([r.wall_events, repr(r.sim_time), r.metrics])
                       for r in results))
        point_wall = sum(record.wall_time for record in pooled.records)

        with ops.op("service.miss", "service", request="miss") as miss:
            document = self._round_trip(client, spec_doc)
        ops.check(document["executed"] == len(points) and document["cache_hits"] == 0,
                  "miss job was not all-miss")
        ops.check(self._stable(document) == engine_doc(report),
                  "service results differ from the engine's")

        hit_ms: List[float] = []
        http_errors = 0
        client_cpu, client_wall = miss.cpu, miss.raw
        for _ in range(self.sizes["hits"]):
            try:
                with ops.op("service.hit", "service", request="hit") as hit:
                    again = self._round_trip(client, spec_doc)
            except PassAborted:
                http_errors += 1
                continue
            hit_ms.append(hit.seconds * 1e3)
            client_cpu += hit.cpu
            client_wall += hit.raw
            ops.check(again["cache_hits"] == len(points) and again["executed"] == 0,
                      "hit job ran simulations")
            ops.check(self._stable(again) == self._stable(document),
                      "hit results differ from the miss results")

        with urllib.request.urlopen(
            f"{client.base_url}/results/job-000001", timeout=30
        ) as response:
            results_bytes = len(response.read())
        cache = ctx["service"].cache.stats()
        every = ctx["service"].manager.snapshot_every
        return {
            "values": {
                "events_per_s": events / serial_s,
                "points_per_s": len(points) / pool_s,
                "miss_results_s": miss.seconds,
            },
            "samples": {"hit_ms": hit_ms},
            "events": events,
            "rate_stages": ["engine.serial"],
            "digest": digest,
            "counts": counts,
            "extra": {
                "dispatch_overhead_ratio": pool_s * NPROC / point_wall,
                "failed_points": float(len(report.failed) + len(pooled.failed)),
                "cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                "snapshots_per_point": sum(
                    r.wall_events // every for r in results) / len(points),
                "results_bytes": float(results_bytes),
                "http_errors": float(http_errors),
                "generator_cpu_share": client_cpu / client_wall,
            },
        }

    def differentials(self) -> Dict[str, float]:
        """The miss path with per-point snapshots effectively off."""
        walls = {}
        for label, options in (("default", {}), ("off", {"snapshot_every": 10**9})):
            data_dir = tempfile.mkdtemp(prefix=f"snap-{label}-", dir=self.tmp)
            ctx = self._start(data_dir, **options)
            try:
                gc.collect()
                with timed() as miss:
                    self._round_trip(ctx["client"], self._spec().to_dict())
                walls[label] = miss.seconds
            finally:
                self._stop(ctx)
                shutil.rmtree(data_dir, ignore_errors=True)
        return {"snapshot_share": 1.0 - walls["off"] / walls["default"]}


WORKLOADS = {cls.name: cls for cls in (Paper16Sweep, ScaleLadder, TraceExport, GridService)}
