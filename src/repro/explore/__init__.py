"""Adversarial schedule exploration, invariant checking, and shrinking.

``repro.explore`` turns the simulator into a property-based testing
harness for the checkpointing protocols:

* :mod:`repro.explore.policy` — seeded schedule perturbation via the
  kernel's :class:`~repro.sim.kernel.SchedulePolicy` hook (FIFO-safe
  tie-break shuffling and bounded delay jitter), with record/replay;
* :mod:`repro.explore.invariants` — a trace-evaluated invariant suite
  (recovery-line consistency, min-process minimality, no avalanche,
  FIFO order, coordination termination, incarnation hygiene);
* :mod:`repro.explore.injections` — adversarial injection grids
  (failures mid-coordination, handoffs, disconnections, concurrent
  initiations) drawn deterministically per seed;
* :mod:`repro.explore.mutations` — deliberately broken protocol
  variants for end-to-end self-tests of the explorer;
* :mod:`repro.explore.fuzz` — batch fan-out over the campaign engine;
* :mod:`repro.explore.shrink` — ddmin counterexample minimization;
* :mod:`repro.explore.fork` — fork-from-snapshot: replay only the tail
  of a violating run from its nearest in-memory simulator snapshot.
"""

from repro.explore.fork import fork_from_counterexample, fork_meta
from repro.explore.fuzz import (
    EXPLORE_PRESETS,
    ExploreReport,
    ExploreSpec,
    execute_explore_point,
    explore_preset,
    run_explore_batch,
    run_explore_once,
    run_explore_point,
    trace_digest,
)
from repro.explore.injections import (
    INJECTION_KINDS,
    InjectionDriver,
    draw_injections,
)
from repro.explore.invariants import (
    DEFAULT_INVARIANTS,
    INVARIANT_FACTORIES,
    Invariant,
    Violation,
    build_invariants,
    check_invariants,
)
from repro.explore.mutations import (
    MUTATIONS,
    available_mutations,
    build_explore_protocol,
)
from repro.explore.policy import (
    PerturbationConfig,
    RecordingPolicy,
    ReplayPolicy,
    decisions_from_jsonable,
    decisions_to_jsonable,
)
from repro.explore.shrink import (
    ddmin,
    replay_counterexample,
    shrink_counterexample,
)

__all__ = [
    "fork_from_counterexample",
    "fork_meta",
    "EXPLORE_PRESETS",
    "ExploreReport",
    "ExploreSpec",
    "execute_explore_point",
    "explore_preset",
    "run_explore_batch",
    "run_explore_once",
    "run_explore_point",
    "trace_digest",
    "INJECTION_KINDS",
    "InjectionDriver",
    "draw_injections",
    "DEFAULT_INVARIANTS",
    "INVARIANT_FACTORIES",
    "Invariant",
    "Violation",
    "build_invariants",
    "check_invariants",
    "MUTATIONS",
    "available_mutations",
    "build_explore_protocol",
    "PerturbationConfig",
    "RecordingPolicy",
    "ReplayPolicy",
    "decisions_from_jsonable",
    "decisions_to_jsonable",
    "ddmin",
    "replay_counterexample",
    "shrink_counterexample",
]
