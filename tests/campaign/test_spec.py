"""Tests for campaign specs, expansion, and content hashing."""

from __future__ import annotations

import json

import pytest

from repro.campaign.cache import canonical_json, derive_seed, spec_hash
from repro.campaign.spec import CampaignSpec, RunPoint, preset_spec
from repro.errors import ConfigurationError
from repro.net.params import NetworkParams


def small_spec(**overrides):
    base = dict(
        name="t",
        protocols=["mutable", "koo-toueg"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": 50.0},
            {"kind": "p2p", "mean_send_interval": 10.0},
            {"kind": "group", "mean_send_interval": 20.0, "n_groups": 2},
        ],
        configs=[{"n_processes": 4}],
        run={"max_initiations": 3, "warmup_initiations": 1},
    )
    base.update(overrides)
    return CampaignSpec(**base)


# -- cache -------------------------------------------------------------
def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_spec_hash_changes_with_content():
    assert spec_hash({"a": 1}) != spec_hash({"a": 2})
    assert spec_hash({"a": 1}) == spec_hash({"a": 1})


def test_derive_seed_deterministic_and_identity_sensitive():
    a = derive_seed(11, {"p": "mutable"})
    assert a == derive_seed(11, {"p": "mutable"})
    assert a != derive_seed(12, {"p": "mutable"})
    assert a != derive_seed(11, {"p": "koo-toueg"})
    assert 0 <= a < 2**31 - 1


# -- run points --------------------------------------------------------
def test_point_round_trip_and_hash_stability():
    point = RunPoint(
        protocol="mutable",
        workload="group",
        workload_params={"mean_send_interval": 20.0, "n_groups": 2},
        system_params={"n_processes": 8},
        run_params={"max_initiations": 4},
        seed=7,
    )
    clone = RunPoint.from_dict(json.loads(json.dumps(point.to_dict())))
    assert clone == point
    assert clone.point_hash == point.point_hash
    assert clone.point_hash != RunPoint(protocol="mutable", seed=8).point_hash


def test_point_accepts_network_params_instance():
    point = RunPoint(
        protocol="mutable",
        system_params={"network": NetworkParams(shared_cell_medium=False)},
    )
    assert point.system_params["network"]["shared_cell_medium"] is False
    json.dumps(point.to_dict())  # stays JSON-serializable


def test_point_rejects_bad_workload_and_seed_placement():
    with pytest.raises(ConfigurationError):
        RunPoint(protocol="mutable", workload="nope")
    with pytest.raises(ConfigurationError):
        RunPoint(protocol="mutable", workload_params={"mean_send_interval": -1})
    with pytest.raises(ConfigurationError):
        RunPoint(protocol="mutable", system_params={"seed": 3})


# -- campaign specs ----------------------------------------------------
def test_expand_grid_shape():
    points = small_spec().expand()
    assert len(points) == 2 * 3 * 1
    assert len({p.point_hash for p in points}) == len(points)
    protocols = {p.protocol for p in points}
    assert protocols == {"mutable", "koo-toueg"}


def test_expand_seeds_are_content_derived():
    """A point's seed depends on its identity, not its grid position."""
    full = {p.label(): p.seed for p in small_spec().expand()}
    subset = small_spec(protocols=["koo-toueg"]).expand()
    for p in subset:
        assert full[p.label()] == p.seed


def test_replicates_get_distinct_seeds():
    points = small_spec(replicates=3).expand()
    assert len(points) == 18
    by_rep = {}
    for p in points:
        by_rep.setdefault(p.replicate, []).append(p.seed)
    assert set(by_rep) == {0, 1, 2}
    assert by_rep[0] != by_rep[1] != by_rep[2]


def test_spec_json_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = CampaignSpec.from_json_file(str(path))
    assert loaded == spec
    assert loaded.campaign_hash == spec.campaign_hash
    assert [p.point_hash for p in loaded.expand()] == [
        p.point_hash for p in spec.expand()
    ]


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="")
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="x", replicates=0)
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="x", protocols=[])


def test_presets_expand():
    assert len(preset_spec("smoke").expand()) == 4
    assert len(preset_spec("fig5").expand()) == 6
    assert len(preset_spec("fig6").expand()) == 8
    assert [p.protocol for p in preset_spec("table1").expand()] == [
        "koo-toueg", "elnozahy", "mutable"
    ]
    with pytest.raises(ConfigurationError):
        preset_spec("nope")


def test_preset_scale_override_touches_only_the_run_length():
    default, scaled = preset_spec("fig5"), preset_spec("fig5", max_initiations=9)
    assert scaled.run == {**default.run, "max_initiations": 9}
    assert scaled.workloads == default.workloads
    assert all(p.run_params["max_initiations"] == 9 for p in scaled.expand())


def test_pinned_workload_seed_is_shared_across_protocols():
    """Table 1 compares algorithms on the *same* traffic: a workload
    entry's ``seed`` reaches every protocol that runs it (replicates
    still differ) and is not part of the workload config."""
    spec = CampaignSpec(
        name="paired",
        protocols=["mutable", "koo-toueg"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": 50.0, "seed": 21},
            {"kind": "p2p", "mean_send_interval": 25.0},
        ],
        replicates=2,
    )
    points = spec.expand()
    pinned = [p for p in points if p.workload_params["mean_send_interval"] == 50.0]
    assert [p.seed for p in pinned] == [21, 21, 22, 22]
    assert all("seed" not in p.workload_params for p in points)
    free = [p for p in points if p not in pinned]
    assert len({p.seed for p in free}) == len(free)
    assert {p.seed for p in preset_spec("table1").expand()} == {21}
