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
* :mod:`repro.explore.shrink` — ddmin counterexample minimization and
  counterexample replay from the recorded schedule decisions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "EXPLORE_PRESETS": "fuzz",
    "ExploreReport": "fuzz",
    "ExploreSpec": "fuzz",
    "explore_preset": "fuzz",
    "run_explore_batch": "fuzz",
    "run_explore_once": "fuzz",
    "run_explore_point": "fuzz",
    "trace_digest": "fuzz",
    "INJECTION_KINDS": "injections",
    "InjectionDriver": "injections",
    "draw_injections": "injections",
    "DEFAULT_INVARIANTS": "invariants",
    "INVARIANT_FACTORIES": "invariants",
    "Invariant": "invariants",
    "Violation": "invariants",
    "build_invariants": "invariants",
    "check_invariants": "invariants",
    "MUTATIONS": "mutations",
    "available_mutations": "mutations",
    "build_explore_protocol": "mutations",
    "PerturbationConfig": "policy",
    "RecordingPolicy": "policy",
    "ReplayPolicy": "policy",
    "decisions_from_jsonable": "policy",
    "decisions_to_jsonable": "policy",
    "ddmin": "shrink",
    "replay_counterexample": "shrink",
    "shrink_counterexample": "shrink",
})
