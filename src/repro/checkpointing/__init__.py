"""Checkpointing protocols and supporting machinery.

The paper's contribution lives in :mod:`repro.checkpointing.mutable`;
the baselines used in the Table 1 comparison and the §3.1.1 ablation
schemes live alongside it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BasicCsnProtocol": "simple_schemes",
    "ChandyLamportProcess": "chandy_lamport",
    "ChandyLamportProtocol": "chandy_lamport",
    "CheckpointKind": "types",
    "CheckpointProtocol": "protocol",
    "CheckpointRecord": "types",
    "ElnozahyProcess": "elnozahy",
    "ElnozahyProtocol": "elnozahy",
    "KooTouegProcess": "koo_toueg",
    "KooTouegProtocol": "koo_toueg",
    "LocalStore": "storage",
    "MREntry": "types",
    "MutableCheckpointProcess": "mutable",
    "MutableCheckpointProtocol": "mutable",
    "MutableCheckpointRecord": "types",
    "NoMutableVariantProtocol": "simple_schemes",
    "ProcessEnv": "protocol",
    "ProtocolProcess": "protocol",
    "RevisedCsnProtocol": "simple_schemes",
    "StableStorage": "storage",
    "TimerBasedProtocol": "timer_based",
    "Trigger": "types",
    "UncoordinatedProtocol": "uncoordinated",
    "WeightLedger": "weights",
    "as_weight": "weights",
    "fresh_mr": "types",
    "split": "weights",
})
