"""Seeded fuzz batches: schedule perturbation × adversarial injections.

An :class:`ExploreSpec` describes a batch of adversarial runs: a base
system/workload (small and fast by design), a number of seeds, the
perturbation knobs, the injection grid, an optional planted mutation,
and the invariant selection. ``expand()`` derives one
:class:`~repro.campaign.spec.RunPoint` per seed — each carrying its
content-derived run seed, perturbation seed, and a concrete injection
schedule in its ``explore`` payload — so the batch rides the existing
:class:`~repro.campaign.engine.CampaignEngine` and fans out over
workers bit-identically (every point is hermetic).

:func:`execute_explore_point` is the worker entry point; it builds the
system, installs the :class:`~repro.explore.policy.RecordingPolicy` and
the :class:`~repro.explore.injections.InjectionDriver`, runs to
quiescence, evaluates the invariant suite, and — on violation — runs
the delta-debugging shrinker inside the worker so the record already
contains a minimized, replayable counterexample.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import derive_seed, spec_hash
from repro.campaign.engine import CampaignEngine, CampaignReport, build_point_runtime
from repro.campaign.spec import WORKLOAD_KINDS, RunPoint
from repro.campaign.store import PointRecord, ResultStore
from repro.core.config import RunConfig
from repro.core.system import MobileSystem
from repro.errors import ConfigurationError
from repro.explore.injections import INJECTION_KINDS, InjectionDriver, draw_injections
from repro.explore.invariants import Violation, build_invariants, check_invariants
from repro.explore.mutations import MUTATIONS, build_explore_protocol
from repro.explore.policy import (
    Decisions,
    PerturbationConfig,
    RecordingPolicy,
    ReplayPolicy,
    decisions_to_jsonable,
)
from repro.sim.export import dumps_trace
from repro.sim.trace import TraceLog

#: runaway guard for explore points — small systems, short horizons
DEFAULT_EXPLORE_MAX_EVENTS = 5_000_000


def trace_digest(trace: TraceLog) -> str:
    """Content hash of a trace's canonical JSONL export.

    Two runs with the same digest produced bit-identical schedules —
    this is what the determinism acceptance tests compare.
    """
    return hashlib.sha256(dumps_trace(trace).encode("utf-8")).hexdigest()[:32]


@dataclass
class ExploreSpec:
    """One fuzz batch: base run × seeds × perturbation × injections."""

    name: str = "explore"
    protocol: str = "mutable"
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    workload: str = "p2p"
    workload_params: Dict[str, Any] = field(
        default_factory=lambda: {"mean_send_interval": 2.0}
    )
    # The default system is deliberately adversarial, not realistic: a
    # slow wired backbone widens the §2.4 race window (a tagged message
    # racing a request that crawls a dependency chain), and a short
    # checkpoint interval keeps the dependency graph sparse so depth>=2
    # chains exist at all. Under the paper's fast-network defaults the
    # race is so narrow that even planted bugs almost never fire.
    system_params: Dict[str, Any] = field(
        default_factory=lambda: {
            "n_processes": 6,
            "n_mss": 2,
            "checkpoint_interval": 8.0,
            "trace_messages": True,
            "network": {"wired_latency": 0.2},
        }
    )
    run_params: Dict[str, Any] = field(
        default_factory=lambda: {
            "max_initiations": 8,
            "warmup_initiations": 0,
            "time_limit": 250.0,
        }
    )
    n_seeds: int = 25
    seed: int = 7
    perturb: Dict[str, Any] = field(
        default_factory=lambda: PerturbationConfig(max_jitter=0.1).to_dict()
    )
    injection_kinds: Optional[List[str]] = None
    max_injections: int = 3
    mutation: Optional[str] = None
    shrink: bool = True
    invariants: Optional[List[str]] = None
    max_events: int = DEFAULT_EXPLORE_MAX_EVENTS

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ConfigurationError("need at least one seed")
        if self.workload not in WORKLOAD_KINDS:
            raise ConfigurationError(f"unknown workload kind {self.workload!r}")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ConfigurationError(
                f"unknown mutation {self.mutation!r}; "
                f"available: {', '.join(sorted(MUTATIONS))}"
            )
        if self.run_params.get("time_limit") is None:
            raise ConfigurationError(
                "explore runs need run_params['time_limit'] (injections can "
                "stall coordinations; the limit bounds every run)"
            )
        PerturbationConfig.from_dict(self.perturb)
        RunConfig(**self.run_params)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "protocol_params": dict(self.protocol_params),
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "system_params": dict(self.system_params),
            "run_params": dict(self.run_params),
            "n_seeds": self.n_seeds,
            "seed": self.seed,
            "perturb": dict(self.perturb),
            "injection_kinds": (
                None if self.injection_kinds is None else list(self.injection_kinds)
            ),
            "max_injections": self.max_injections,
            "mutation": self.mutation,
            "shrink": self.shrink,
            "invariants": None if self.invariants is None else list(self.invariants),
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExploreSpec":
        return cls(**data)

    def expand(self) -> List[RunPoint]:
        """One hermetic RunPoint per seed, injections drawn up front."""
        n_processes = self.system_params.get("n_processes", 16)
        n_mss = self.system_params.get("n_mss", 1)
        horizon = float(self.run_params["time_limit"])
        points: List[RunPoint] = []
        for index in range(self.n_seeds):
            identity = {
                "explore": self.name,
                "seed_index": index,
                "protocol": self.protocol,
                "mutation": self.mutation,
            }
            run_seed = derive_seed(self.seed, {**identity, "role": "run"})
            perturb_seed = derive_seed(self.seed, {**identity, "role": "perturb"})
            injection_seed = derive_seed(
                self.seed, {**identity, "role": "injections"}
            )
            injections = draw_injections(
                injection_seed,
                n_processes=n_processes,
                n_mss=n_mss,
                horizon=horizon,
                kinds=self.injection_kinds,
                max_injections=self.max_injections,
            )
            points.append(
                RunPoint(
                    protocol=self.protocol,
                    protocol_params=dict(self.protocol_params),
                    workload=self.workload,
                    workload_params=dict(self.workload_params),
                    system_params=dict(self.system_params),
                    run_params=dict(self.run_params),
                    seed=run_seed,
                    max_events=self.max_events,
                    replicate=index,
                    explore={
                        "seed_index": index,
                        "perturb_seed": perturb_seed,
                        "perturb": dict(self.perturb),
                        "injections": injections,
                        "mutation": self.mutation,
                        "shrink": self.shrink,
                        "invariants": (
                            None if self.invariants is None else list(self.invariants)
                        ),
                    },
                )
            )
        return points


@dataclass
class ExploreRun:
    """Everything one adversarial run produced (in-process view)."""

    system: MobileSystem
    policy: Any
    driver: InjectionDriver
    violations: List[Violation]

    @property
    def trace(self) -> TraceLog:
        return self.system.sim.trace

    @property
    def decisions(self) -> Decisions:
        return dict(self.policy.decisions)


def run_explore_once(
    point: RunPoint,
    decisions: Optional[Decisions] = None,
    injections: Optional[Sequence[Dict[str, Any]]] = None,
) -> ExploreRun:
    """Execute one adversarial run and evaluate the invariant suite.

    ``decisions`` switches from a fresh :class:`RecordingPolicy` (seeded
    from the point's explore payload) to a :class:`ReplayPolicy` — the
    shrinker's subset experiments and counterexample replay both use it.
    ``injections`` overrides the point's injection schedule the same way.
    """
    explore = point.explore or {}
    protocol = build_explore_protocol(
        explore.get("mutation"), point.protocol, point.protocol_params
    )
    system, _, runner = build_point_runtime(point, protocol=protocol)
    if decisions is None:
        policy = RecordingPolicy(
            explore["perturb_seed"],
            PerturbationConfig.from_dict(explore.get("perturb", {})),
        )
    else:
        policy = ReplayPolicy(decisions)
    # Nothing is scheduled until runner.run(), so a policy installed
    # after the build still sees every event.
    system.sim.set_policy(policy)
    driver = InjectionDriver(
        system,
        runner,
        explore.get("injections", ()) if injections is None else injections,
    )
    driver.install()
    runner.run(max_events=point.max_events)
    # Drain completely (pending injections, recovery rounds, commit
    # waves) so the termination invariant judges a finished world.
    system.run_until_quiescent(max_events=point.max_events)
    violations = check_invariants(
        system.sim.trace, build_invariants(explore.get("invariants"))
    )
    return ExploreRun(
        system=system,
        policy=policy,
        driver=driver,
        violations=violations,
    )


def run_explore_point(point: RunPoint) -> Dict[str, Any]:
    """One seed end to end: run, check, and (on violation) shrink."""
    run = run_explore_once(point)
    result: Dict[str, Any] = {
        "verdict": "violation" if run.violations else "ok",
        "seed_index": (point.explore or {}).get("seed_index"),
        "violations": [v.to_dict() for v in run.violations],
        "schedule_digest": trace_digest(run.trace),
        "perturbations": len(run.policy.decisions),
        "schedule_calls": run.policy.calls,
        "injections_fired": len(run.driver.fired),
        "events": run.system.sim.events_processed,
        "sim_time": run.system.sim.now,
    }
    if run.violations and (point.explore or {}).get("shrink", True):
        from repro.explore.shrink import shrink_counterexample

        result["counterexample"] = shrink_counterexample(point, run)
    return result


def execute_explore_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point for explore points (pluggable engine executor).

    Mirrors :func:`repro.campaign.engine.execute_point`: never raises,
    returns a :class:`~repro.campaign.store.PointRecord`-shaped dict.
    An invariant violation is still ``status="ok"`` — the *point* ran
    fine; the verdict lives in the result payload.
    """
    started = time.perf_counter()
    point_dict = dict(payload)
    point_hash = spec_hash(point_dict)
    try:
        point = RunPoint.from_dict(point_dict)
        result = run_explore_point(point)
        return {
            "point_hash": point_hash,
            "status": "ok",
            "point": point.to_dict(),
            "result": result,
            "wall_time": time.perf_counter() - started,
        }
    except Exception as exc:  # noqa: BLE001 — failures become records
        return {
            "point_hash": point_hash,
            "status": "failed",
            "point": point_dict,
            "error": f"{type(exc).__name__}: {exc}",
            "meta": {"traceback": traceback.format_exc()},
            "wall_time": time.perf_counter() - started,
        }


@dataclass
class ExploreReport:
    """Batch outcome: per-seed verdicts plus the campaign bookkeeping."""

    spec: ExploreSpec
    campaign: CampaignReport

    @property
    def records(self) -> List[PointRecord]:
        return self.campaign.records

    @property
    def failed(self) -> List[PointRecord]:
        """Points that crashed (infrastructure errors, not violations)."""
        return self.campaign.failed

    @property
    def violations(self) -> List[Tuple[RunPoint, Dict[str, Any]]]:
        """(point, result) for every seed whose verdict was violation."""
        found = []
        for point, record in zip(self.campaign.points, self.campaign.records):
            if record.ok and record.result.get("verdict") == "violation":
                found.append((point, record.result))
        return found

    @property
    def clean(self) -> bool:
        return not self.violations and not self.failed

    def batch_digest(self) -> str:
        """Hash of every seed's (point, schedule, verdict) triple.

        Identical for any worker count and any execution order — the
        bit-identity acceptance check for fuzz batches.
        """
        parts = []
        for record in sorted(self.campaign.records, key=lambda r: r.point_hash):
            result = record.result or {}
            parts.append(
                f"{record.point_hash}:{result.get('schedule_digest')}"
                f":{result.get('verdict')}"
            )
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:32]

    def summary(self) -> str:
        n = len(self.campaign.records)
        n_violations = len(self.violations)
        n_failed = len(self.failed)
        status = "0 violations, CLEAN" if self.clean else (
            f"{n_violations} violation(s), {n_failed} crashed"
        )
        return (
            f"explore {self.spec.name}: {n} seeds, {status}, "
            f"batch digest {self.batch_digest()}"
        )


def run_explore_batch(
    spec: ExploreSpec,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    quiet: bool = True,
) -> ExploreReport:
    """Fan the batch out over the campaign engine and wrap the report."""
    engine = CampaignEngine(
        spec.expand(),
        store=store,
        workers=workers,
        quiet=quiet,
        executor=execute_explore_point,
    )
    engine.name = spec.name
    return ExploreReport(spec=spec, campaign=engine.run())


# -- presets ------------------------------------------------------------
def _quick_spec() -> ExploreSpec:
    """Small 6-process, 2-cell system: seconds per seed, full grid."""
    return ExploreSpec(name="quick")


def _mobility_spec() -> ExploreSpec:
    """Mobility-heavy grid: handoffs and disconnections only."""
    return ExploreSpec(
        name="mobility",
        injection_kinds=["handoff", "disconnect", "concurrent_initiation"],
        max_injections=4,
    )


def _failures_spec() -> ExploreSpec:
    """Failure-heavy grid: crashes mid-coordination, both §3.6 policies."""
    return ExploreSpec(
        name="failures",
        injection_kinds=["fail_mid_coordination", "concurrent_initiation"],
        max_injections=2,
    )


EXPLORE_PRESETS = {
    "quick": _quick_spec,
    "mobility": _mobility_spec,
    "failures": _failures_spec,
}


def explore_preset(name: str) -> ExploreSpec:
    """A built-in explore batch by name."""
    try:
        return EXPLORE_PRESETS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown explore preset {name!r}; "
            f"available: {', '.join(sorted(EXPLORE_PRESETS))}"
        ) from None
