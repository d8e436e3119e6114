"""Delta-debugging counterexample shrinker.

When a seed violates an invariant, the raw reproduction is noisy: a few
hundred recorded schedule perturbations plus several injections, most of
them irrelevant. :func:`shrink_counterexample` minimizes both with the
classic ddmin algorithm — first the injection schedule, then the
perturbation decision set — re-running the simulation as the test
oracle. Every experiment replays a *subset* of the recorded decisions
through :class:`~repro.explore.policy.ReplayPolicy`, so the search space
is exactly "which of the observed perturbations mattered".

The result is a plain-data counterexample: a RunPoint dict with the
minimized injections baked in, plus the minimized decision list —
:func:`replay_counterexample` turns it back into a live run that
reproduces the violation bit-identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.campaign.spec import RunPoint
from repro.explore.policy import (
    Decisions,
    decisions_from_jsonable,
    decisions_to_jsonable,
)

#: default cap on shrinker experiments (each one is a full sim run)
DEFAULT_SHRINK_BUDGET = 200


def ddmin(
    items: Sequence[Any],
    test: Callable[[List[Any]], bool],
    max_tests: int = DEFAULT_SHRINK_BUDGET,
) -> Tuple[List[Any], int]:
    """Zeller's minimizing delta debugging.

    ``test(subset)`` must return True when the subset still triggers the
    failure; ``test(items)`` is assumed True (the caller observed it).
    Returns ``(minimal_subset, tests_run)``. The result is 1-minimal if
    the budget was not exhausted; otherwise it is the best reduction
    found within ``max_tests`` experiments.
    """
    items = list(items)
    tests_run = 0

    def run_test(subset: List[Any]) -> bool:
        nonlocal tests_run
        tests_run += 1
        return test(subset)

    if not items:
        return items, tests_run
    if run_test([]):
        return [], tests_run
    granularity = 2
    while len(items) >= 2 and tests_run < max_tests:
        chunk_size = max(1, len(items) // granularity)
        chunks = [
            items[i : i + chunk_size] for i in range(0, len(items), chunk_size)
        ]
        reduced = False
        for index in range(len(chunks)):
            if tests_run >= max_tests:
                break
            complement = [
                item
                for chunk_index, chunk in enumerate(chunks)
                for item in chunk
                if chunk_index != index
            ]
            if complement and run_test(complement):
                items = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items, tests_run


def shrink_counterexample(
    point: RunPoint,
    initial_run: Any,
    max_tests: int = DEFAULT_SHRINK_BUDGET,
) -> Dict[str, Any]:
    """Minimize a violating run to a replayable counterexample.

    ``initial_run`` is the :class:`~repro.explore.fuzz.ExploreRun` that
    violated. Two ddmin passes share one experiment budget: injections
    first (they dominate run behaviour), then the recorded perturbation
    decisions. The oracle accepts *any* invariant violation, not just
    the original one — standard practice; chasing one fixed symptom
    makes shrinking brittle for no diagnostic gain.
    """
    from repro.explore.fuzz import run_explore_once, trace_digest

    explore = point.explore or {}
    full_decisions: Decisions = dict(initial_run.policy.decisions)
    full_injections: List[Dict[str, Any]] = [
        dict(injection) for injection in explore.get("injections", ())
    ]
    tests_total = 0

    def violates(
        decisions: Decisions, injections: List[Dict[str, Any]]
    ) -> bool:
        run = run_explore_once(point, decisions=decisions, injections=injections)
        return bool(run.violations)

    budget = max_tests
    min_injections, used = ddmin(
        full_injections,
        lambda subset: violates(full_decisions, subset),
        max_tests=budget,
    )
    tests_total += used
    budget = max(0, max_tests - tests_total)

    decision_items = sorted(full_decisions.items())
    if budget > 0:
        min_items, used = ddmin(
            decision_items,
            lambda subset: violates(dict(subset), min_injections),
            max_tests=budget,
        )
        tests_total += used
    else:
        min_items = decision_items
    min_decisions: Decisions = dict(min_items)

    # Final replay with the minimized pair — both to confirm it and to
    # capture the canonical violation list and schedule digest.
    final = run_explore_once(
        point, decisions=min_decisions, injections=min_injections
    )
    tests_total += 1

    ce_point = point.to_dict()
    ce_explore = dict(ce_point.get("explore") or {})
    ce_explore["injections"] = [dict(injection) for injection in min_injections]
    ce_explore["shrink"] = False
    ce_point["explore"] = ce_explore

    return {
        "point": ce_point,
        "decisions": decisions_to_jsonable(min_decisions),
        "violations": [v.to_dict() for v in final.violations],
        "schedule_digest": trace_digest(final.trace),
        "original_decisions": len(full_decisions),
        "original_injections": len(full_injections),
        "shrunk_decisions": len(min_decisions),
        "shrunk_injections": len(min_injections),
        "tests_run": tests_total,
        "reproduces": bool(final.violations),
    }


def replay_counterexample(counterexample: Dict[str, Any]) -> Any:
    """Re-run a shrunk counterexample; returns the live ExploreRun.

    Deterministic: the same counterexample dict always produces the same
    schedule digest and the same violations.
    """
    from repro.explore.fuzz import run_explore_once

    point = RunPoint.from_dict(dict(counterexample["point"]))
    decisions = decisions_from_jsonable(counterexample["decisions"])
    return run_explore_once(point, decisions=decisions)
