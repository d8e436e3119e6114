"""Tests for explore batches: determinism, detection, shrinking."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.explore.fuzz import (
    EXPLORE_PRESETS,
    ExploreSpec,
    explore_preset,
    run_explore_batch,
    run_explore_once,
    run_explore_point,
)
from repro.explore.policy import decisions_to_jsonable
from repro.explore.shrink import replay_counterexample


def small_spec(**overrides):
    kwargs = dict(name="t", n_seeds=4, seed=3, shrink=False)
    kwargs.update(overrides)
    return ExploreSpec(**kwargs)


# -- spec ----------------------------------------------------------------


def test_spec_round_trip():
    spec = small_spec(mutation="skip-mutable", injection_kinds=["handoff"])
    assert ExploreSpec.from_dict(spec.to_dict()) == spec


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ExploreSpec(n_seeds=0)
    with pytest.raises(ConfigurationError):
        ExploreSpec(run_params={})  # no time_limit


def test_presets_exist_and_lookup_works():
    for name in EXPLORE_PRESETS:
        spec = explore_preset(name)
        assert spec.n_seeds >= 1
    with pytest.raises(ConfigurationError):
        explore_preset("nope")


def test_expand_is_deterministic_and_hermetic():
    a = [p.point_hash for p in small_spec().expand()]
    b = [p.point_hash for p in small_spec().expand()]
    assert a == b
    assert len(set(a)) == len(a)  # all points distinct


def test_expand_seeds_differ_per_point_and_spec_seed():
    points = small_spec().expand()
    assert len({p.seed for p in points}) == len(points)
    other = small_spec(seed=4).expand()
    assert [p.seed for p in points] != [p.seed for p in other]


def test_explore_payload_survives_point_round_trip():
    from repro.campaign.spec import RunPoint

    point = small_spec(mutation="skip-mutable").expand()[0]
    clone = RunPoint.from_dict(point.to_dict())
    assert clone.explore == point.explore
    assert clone.point_hash == point.point_hash


# -- single-point determinism --------------------------------------------


def test_same_point_same_schedule_digest():
    from repro.explore.fuzz import trace_digest

    point = small_spec().expand()[0]
    run_a = run_explore_once(point)
    run_b = run_explore_once(point)
    assert trace_digest(run_a.trace) == trace_digest(run_b.trace)
    assert run_a.decisions == run_b.decisions


def test_replay_of_recorded_decisions_matches():
    from repro.explore.fuzz import trace_digest

    point = small_spec().expand()[1]
    recorded = run_explore_once(point)
    replayed = run_explore_once(point, decisions=recorded.decisions)
    assert trace_digest(replayed.trace) == trace_digest(recorded.trace)


def test_run_explore_point_result_shape():
    result = run_explore_point(small_spec().expand()[0])
    assert result["verdict"] in ("ok", "violation")
    assert len(result["schedule_digest"]) == 32
    assert result["events"] > 0
    json.dumps(result)  # record must be JSON-serializable for the store


def test_execute_point_runs_an_explore_point_to_its_verdict():
    from repro.campaign.engine import execute_point

    point = small_spec(mutation="skip-mutable").expand()[0]
    record = execute_point(point.to_dict())
    assert record["status"] == "ok"
    assert record["point_hash"] == point.point_hash
    assert record["result"] == run_explore_point(point)


# -- batches -------------------------------------------------------------


def test_clean_batch_has_zero_violations():
    report = run_explore_batch(small_spec(n_seeds=8))
    assert not report.failed
    assert report.clean
    assert report.violations == []


def test_batch_digest_reproducible_and_seed_sensitive():
    spec = small_spec(n_seeds=5)
    digest_a = run_explore_batch(spec).batch_digest()
    digest_b = run_explore_batch(spec).batch_digest()
    assert digest_a == digest_b
    digest_c = run_explore_batch(small_spec(n_seeds=5, seed=8)).batch_digest()
    assert digest_c != digest_a


def test_workers_do_not_change_batch_digest():
    spec = small_spec(n_seeds=6)
    serial = run_explore_batch(spec, workers=1)
    fanned = run_explore_batch(spec, workers=4)
    assert serial.batch_digest() == fanned.batch_digest()


# -- mutation self-test --------------------------------------------------


def mutated_spec(n_seeds=17, shrink=True):
    # seed budget chosen to cover the first known-detecting seed index
    return ExploreSpec(
        name="quick", mutation="skip-mutable", n_seeds=n_seeds, shrink=shrink
    )


def test_planted_mutation_is_detected_within_budget():
    report = run_explore_batch(mutated_spec(shrink=False))
    assert not report.failed
    assert not report.clean
    assert report.violations


def test_mutation_detection_is_deterministic():
    collect = lambda: sorted(
        result["seed_index"]
        for _, result in run_explore_batch(mutated_spec(shrink=False)).violations
    )
    assert collect() == collect()


def test_counterexample_shrinks_and_replays():
    report = run_explore_batch(mutated_spec())
    assert report.violations
    ratios = []
    for point, result in report.violations:
        ce = result["counterexample"]
        assert ce["reproduces"]
        assert ce["shrunk_decisions"] <= ce["original_decisions"]
        assert ce["violations"], "shrunk counterexample must still violate"
        if ce["original_decisions"]:
            ratios.append(ce["shrunk_decisions"] / ce["original_decisions"])
        # the dumped point must replay to the same verdict outside the batch
        rerun = replay_counterexample(ce)
        assert rerun.violations
    # acceptance: at least one counterexample at <= 25% of the original set
    assert ratios and min(ratios) <= 0.25


def test_counterexample_is_json_serializable():
    report = run_explore_batch(mutated_spec())
    _, result = report.violations[0]
    json.dumps(result["counterexample"])


def test_256p_counterexample_dump_replays_to_identical_violation(tmp_path):
    """The large-population dump path end to end: a 256-process planted
    violation, its counterexample JSON and compact trace export written
    to disk, read back, and replayed — bit-identical violation list,
    schedule digest, and archived trace."""
    from repro.explore.fuzz import trace_digest
    from repro.sim.export import read_trace, save_trace

    spec = ExploreSpec(
        name="scale-ce", n_seeds=8, seed=3, shrink=False,
        mutation="skip-mutable",
        system_params={
            "n_processes": 256, "n_mss": 8, "checkpoint_interval": 8.0,
            "trace_messages": True, "network": {"wired_latency": 0.2},
        },
        workload_params={"mean_send_interval": 5.0},
        run_params={
            "max_initiations": 8, "warmup_initiations": 0,
            "time_limit": 100.0,
        },
    )
    # seed index 7 is a known single-violation cell at this spec
    point = spec.expand()[7]
    run = run_explore_once(point)
    assert run.violations, "expected the planted mutation to fire"

    # the CLI's artifact pair: counterexample JSON + archived trace
    counterexample = {
        "point": point.to_dict(),
        "decisions": decisions_to_jsonable(run.decisions),
        "violations": [v.to_dict() for v in run.violations],
        "schedule_digest": trace_digest(run.trace),
    }
    ce_path = tmp_path / "counterexample.json"
    ce_path.write_text(json.dumps(counterexample, indent=2, sort_keys=True))
    trace_path = str(tmp_path / "counterexample.trace.jsonl")
    save_trace(run.trace, trace_path)
    assert read_trace(trace_path).content_hash() == run.trace.content_hash()

    loaded = json.loads(ce_path.read_text())
    replayed = replay_counterexample(loaded)
    assert [v.to_dict() for v in replayed.violations] == loaded["violations"]
    assert trace_digest(replayed.trace) == loaded["schedule_digest"]
