"""Protocol registry: build protocols by name.

Used by benchmarks and examples so a protocol choice can be a plain
string (``"mutable"``, ``"koo-toueg"``, ...).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.checkpointing.chandy_lamport import ChandyLamportProtocol
from repro.checkpointing.elnozahy import ElnozahyProtocol
from repro.checkpointing.koo_toueg import KooTouegProtocol
from repro.checkpointing.mutable import MutableCheckpointProtocol
from repro.checkpointing.protocol import CheckpointProtocol
from repro.checkpointing.timer_based import TimerBasedProtocol
from repro.checkpointing.uncoordinated import UncoordinatedProtocol
from repro.checkpointing.simple_schemes import (
    BasicCsnProtocol,
    NoMutableVariantProtocol,
    RevisedCsnProtocol,
)
from repro.errors import ConfigurationError

_FACTORIES: Dict[str, Callable[[], CheckpointProtocol]] = {
    "mutable": MutableCheckpointProtocol,
    "koo-toueg": KooTouegProtocol,
    "elnozahy": ElnozahyProtocol,
    "chandy-lamport": ChandyLamportProtocol,
    "csn-basic": BasicCsnProtocol,
    "csn-revised": RevisedCsnProtocol,
    "no-mutable": NoMutableVariantProtocol,
    "timer-based": TimerBasedProtocol,
    "uncoordinated": UncoordinatedProtocol,
}


def available_protocols() -> List[str]:
    """Names accepted by :func:`build_protocol`."""
    return sorted(_FACTORIES)


def build_protocol(name: str, **kwargs) -> CheckpointProtocol:
    """Instantiate the protocol registered under ``name``."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        )
    return factory(**kwargs)
