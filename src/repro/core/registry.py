"""Protocol registry: build protocols by name.

Used by benchmarks and examples so a protocol choice can be a plain
string (``"mutable"``, ``"koo-toueg"``, ...).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro import checkpointing
from repro.checkpointing.protocol import CheckpointProtocol
from repro.errors import ConfigurationError

#: name -> the protocol class; reading it from the package imports that
#: protocol's module only
_CLASSES: Dict[str, Callable[[], Callable[..., CheckpointProtocol]]] = {
    "mutable": lambda: checkpointing.MutableCheckpointProtocol,
    "koo-toueg": lambda: checkpointing.KooTouegProtocol,
    "elnozahy": lambda: checkpointing.ElnozahyProtocol,
    "chandy-lamport": lambda: checkpointing.ChandyLamportProtocol,
    "csn-basic": lambda: checkpointing.BasicCsnProtocol,
    "csn-revised": lambda: checkpointing.RevisedCsnProtocol,
    "no-mutable": lambda: checkpointing.NoMutableVariantProtocol,
    "timer-based": lambda: checkpointing.TimerBasedProtocol,
    "uncoordinated": lambda: checkpointing.UncoordinatedProtocol,
}


def available_protocols() -> List[str]:
    """Names accepted by :func:`build_protocol`."""
    return sorted(_CLASSES)


def build_protocol(name: str, **kwargs) -> CheckpointProtocol:
    """Instantiate the protocol registered under ``name``."""
    load = _CLASSES.get(name)
    if load is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        )
    return load()(**kwargs)
