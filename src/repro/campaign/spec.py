"""Declarative campaign specifications.

A :class:`CampaignSpec` is the grid the paper's §5 evaluation sweeps —
protocol × workload × system-config axes, optionally replicated — and
``expand()`` turns it into concrete :class:`RunPoint` s. A point is a
fully self-contained, picklable, JSON-serializable description of one
simulation run: a worker process can rebuild the whole
:class:`~repro.core.system.MobileSystem` from it with no shared state.

Every point carries its own seed, derived from the campaign master seed
and the point's content (see :mod:`repro.campaign.cache`), so results do
not depend on expansion order or on how points are spread over workers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.campaign.cache import derive_seed, spec_hash
from repro.core.config import (
    GroupWorkloadConfig,
    PointToPointWorkloadConfig,
    RunConfig,
    SystemConfig,
    build_config,
)
from repro.errors import ConfigurationError
from repro.workload.base import Workload
from repro.workload.bursty import BurstyWorkload, BurstyWorkloadConfig
from repro.workload.group import GroupWorkload
from repro.workload.point_to_point import PointToPointWorkload

#: workload kinds a point may name -> (config class, workload class)
WORKLOAD_KINDS: Dict[str, Tuple[Type, Type[Workload]]] = {
    "p2p": (PointToPointWorkloadConfig, PointToPointWorkload),
    "group": (GroupWorkloadConfig, GroupWorkload),
    "bursty": (BurstyWorkloadConfig, BurstyWorkload),
}

#: default runaway guard for campaign points (the benches import it)
DEFAULT_MAX_EVENTS = 50_000_000


def _check_workload(kind: str, params: Dict[str, Any]) -> None:
    if kind not in WORKLOAD_KINDS:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; "
            f"available: {', '.join(sorted(WORKLOAD_KINDS))}"
        )
    # Fail at spec time, not inside a worker: the config dataclasses
    # validate their own fields.
    build_config(WORKLOAD_KINDS[kind][0], params, f"{kind} workload")


@dataclass
class RunPoint:
    """One cell of a campaign grid: everything one run needs.

    ``system_params`` are overrides for :class:`SystemConfig` (a nested
    ``"network"`` dict becomes :class:`NetworkParams`); ``run_params``
    feed :class:`RunConfig`. All fields are plain JSON values, so the
    point can cross a process boundary and be content-hashed.

    ``explore`` is an optional payload for adversarial runs (see
    :mod:`repro.explore`): perturbation seed/config, injection schedule,
    mutation and invariant selection. It is serialized only when set, so
    the hashes of ordinary campaign points are unchanged.
    """

    protocol: str
    workload: str = "p2p"
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)
    system_params: Dict[str, Any] = field(default_factory=dict)
    run_params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 42
    max_events: Optional[int] = DEFAULT_MAX_EVENTS
    replicate: int = 0
    explore: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        _check_workload(self.workload, self.workload_params)
        build_config(RunConfig, self.run_params, "run")
        if "seed" in self.system_params:
            raise ConfigurationError(
                "put the seed in RunPoint.seed, not system_params"
            )
        network = self.system_params.get("network")
        if network is not None and dataclasses.is_dataclass(network):
            # Accept a NetworkParams instance for convenience; store the
            # JSON form so the point stays hashable and picklable.
            self.system_params = dict(
                self.system_params, network=dataclasses.asdict(network)
            )
        SystemConfig.from_params(self.system_params)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "protocol": self.protocol,
            "workload": self.workload,
            "protocol_params": dict(self.protocol_params),
            "workload_params": dict(self.workload_params),
            "system_params": dict(self.system_params),
            "run_params": dict(self.run_params),
            "seed": self.seed,
            "max_events": self.max_events,
            "replicate": self.replicate,
        }
        if self.explore is not None:
            data["explore"] = dict(self.explore)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunPoint":
        return cls(**data)

    @property
    def point_hash(self) -> str:
        """Content hash of the full point spec (the store key)."""
        return spec_hash(self.to_dict())

    def label(self) -> str:
        """Short human-readable identity for progress lines and rows."""
        parts = [self.protocol, self.workload]
        for params in (self.protocol_params, self.workload_params):
            parts.extend(f"{k}={v}" for k, v in sorted(params.items()))
        if self.replicate:
            parts.append(f"rep={self.replicate}")
        return " ".join(parts)


@dataclass
class CampaignSpec:
    """A declarative grid of runs: the §5 sweep shape.

    ``protocols`` entries are either a registry name (``"mutable"``) or
    ``{"name": ..., "params": {...}}``. ``workloads`` entries are
    ``{"kind": "p2p"|"group"|"bursty", **config}``; an entry may pin
    ``"seed"``, and then every protocol and config runs that workload on
    the same random streams — a paired comparison, what Table 1's "same
    workload" means (unpinned cells get independent content-derived
    seeds). ``configs`` is an axis of :class:`SystemConfig` override
    dicts (default: one empty override). ``replicates`` repeats every
    cell with independent seeds.
    """

    name: str
    protocols: List[Any] = field(default_factory=lambda: ["mutable"])
    workloads: List[Dict[str, Any]] = field(
        default_factory=lambda: [{"kind": "p2p"}]
    )
    configs: List[Dict[str, Any]] = field(default_factory=lambda: [{}])
    replicates: int = 1
    seed: int = 11
    run: Dict[str, Any] = field(default_factory=dict)
    max_events: Optional[int] = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign needs a name")
        if self.replicates < 1:
            raise ConfigurationError("need at least one replicate")
        if not self.protocols or not self.workloads or not self.configs:
            raise ConfigurationError("every campaign axis needs at least one value")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "protocols": list(self.protocols),
            "workloads": [dict(w) for w in self.workloads],
            "configs": [dict(c) for c in self.configs],
            "replicates": self.replicates,
            "seed": self.seed,
            "run": dict(self.run),
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @property
    def campaign_hash(self) -> str:
        return spec_hash(self.to_dict())

    def expand(self) -> List[RunPoint]:
        """The grid as concrete points, with content-derived seeds."""
        points: List[RunPoint] = []
        for replicate in range(self.replicates):
            for protocol in self.protocols:
                if isinstance(protocol, str):
                    proto_name, proto_params = protocol, {}
                else:
                    proto_name = protocol["name"]
                    proto_params = dict(protocol.get("params", {}))
                for workload in self.workloads:
                    workload = dict(workload)
                    kind = workload.pop("kind", "p2p")
                    pinned_seed = workload.pop("seed", None)
                    for config in self.configs:
                        identity = {
                            "protocol": proto_name,
                            "protocol_params": proto_params,
                            "workload": kind,
                            "workload_params": workload,
                            "system_params": config,
                            "run_params": self.run,
                            "replicate": replicate,
                        }
                        points.append(
                            RunPoint(
                                protocol=proto_name,
                                protocol_params=dict(proto_params),
                                workload=kind,
                                workload_params=dict(workload),
                                system_params=dict(config),
                                run_params=dict(self.run),
                                seed=(
                                    derive_seed(self.seed, identity)
                                    if pinned_seed is None
                                    else pinned_seed + replicate
                                ),
                                max_events=self.max_events,
                                replicate=replicate,
                            )
                        )
        return points


# -- presets ------------------------------------------------------------
def _fig5_spec() -> CampaignSpec:
    """Fig. 5: mutable protocol, point-to-point, rate sweep."""
    return CampaignSpec(
        name="fig5",
        protocols=["mutable"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": 1.0 / rate}
            for rate in (0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
        ],
        run={"max_initiations": 22, "warmup_initiations": 2},
    )


def _fig6_spec() -> CampaignSpec:
    """Fig. 6: group communication, rate × intra:inter-ratio sweep."""
    return CampaignSpec(
        name="fig6",
        protocols=["mutable"],
        workloads=[
            {
                "kind": "group",
                "mean_send_interval": 1.0 / rate,
                "n_groups": 4,
                "intra_inter_ratio": ratio,
            }
            for ratio in (1_000.0, 10_000.0)
            for rate in (0.005, 0.01, 0.02, 0.05)
        ],
        run={"max_initiations": 22, "warmup_initiations": 2},
    )


def _table1_spec() -> CampaignSpec:
    """Table 1: Koo-Toueg vs Elnozahy et al. vs mutable on one workload.

    220 s between sends is a moderate rate: N_min lands strictly
    between 1 and N, so the min-process advantage over the all-process
    baseline is visible. The seed is pinned so all three see the same
    traffic; N_min at this rate varies too much between histories for
    independently seeded runs to be comparable row by row.
    """
    return CampaignSpec(
        name="table1",
        protocols=["koo-toueg", "elnozahy", "mutable"],
        workloads=[{"kind": "p2p", "mean_send_interval": 220.0, "seed": 21}],
        run={"max_initiations": 22, "warmup_initiations": 2},
    )


def _smoke_spec() -> CampaignSpec:
    """4 fast points (2 protocols × 2 rates) for CI smoke runs."""
    return CampaignSpec(
        name="smoke",
        protocols=["mutable", "koo-toueg"],
        workloads=[
            {"kind": "p2p", "mean_send_interval": 100.0},
            {"kind": "p2p", "mean_send_interval": 25.0},
        ],
        configs=[{"n_processes": 8, "trace_messages": True}],
        run={"max_initiations": 5, "warmup_initiations": 1},
    )


PRESETS = {
    "fig5": _fig5_spec,
    "fig6": _fig6_spec,
    "table1": _table1_spec,
    "smoke": _smoke_spec,
}


def preset_spec(name: str, max_initiations: Optional[int] = None) -> CampaignSpec:
    """A built-in campaign by name (``fig5``, ``fig6``, ``table1``, ``smoke``).

    ``max_initiations`` rescales every point's run length — the one knob
    the report, the benches and the examples turn; everything else about
    a paper experiment is defined here and nowhere else.
    """
    try:
        spec = PRESETS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    if max_initiations is not None:
        spec.run["max_initiations"] = max_initiations
    return spec
