"""Deliberately planted protocol mutations (explorer self-test).

A fuzzer that never finds anything proves nothing. These mutations each
break the mutable-checkpoint algorithm in a small, realistic way —
exactly the kind of "looks right, loses a race" bug §2.4's impossibility
argument warns about — so the explorer can demonstrate end-to-end that
it finds the violation and shrinks it to a replayable counterexample.

Mutations wrap :class:`~repro.checkpointing.mutable.MutableCheckpointProtocol`
(the only protocol explore mutates), overriding ``_build_process`` with
a subtly broken process subclass; ``skip-mutable`` is the ``no-mutable``
ablation of :mod:`repro.checkpointing.simple_schemes` under its own name.
They are *not* registered in the protocol registry: you opt in via
``--mutation`` / the explore spec, so no production path can pick one
up by accident.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.checkpointing.mutable import (
    MutableCheckpointProcess,
    MutableCheckpointProtocol,
)
from repro.checkpointing.protocol import CheckpointProtocol, ProcessEnv
from repro.checkpointing.simple_schemes import NoMutableVariantProtocol
from repro.errors import ConfigurationError
from repro.net.message import ComputationMessage


class _ForgetSentProcess(MutableCheckpointProcess):
    """Mutation: the ``sent`` flag is cleared on every receive.

    §3.3's mutable-checkpoint condition is "have I *sent* since my last
    checkpoint"; forgetting the flag makes the condition almost always
    false, so mutable checkpoints are skipped precisely in the schedules
    where they matter. Rarer than ``skip-mutable`` — a good
    target for schedule fuzzing rather than plain runs.
    """

    def on_receive_computation(
        self, message: ComputationMessage, deliver: Callable[[], None]
    ) -> None:
        self.sent = False
        super().on_receive_computation(message, deliver)


class SkipMutableMutation(NoMutableVariantProtocol):
    """``skip-mutable``: receivers never take mutable checkpoints."""

    name = "mutable[skip-mutable]"


class ForgetSentMutation(MutableCheckpointProtocol):
    """``forget-sent``: the sent flag is lost on every receive."""

    name = "mutable[forget-sent]"

    def _build_process(self, env: ProcessEnv) -> MutableCheckpointProcess:
        return _ForgetSentProcess(env, self)


#: mutation name -> protocol factory (kwargs as for MutableCheckpointProtocol)
MUTATIONS: Dict[str, Callable[..., MutableCheckpointProtocol]] = {
    "skip-mutable": SkipMutableMutation,
    "forget-sent": ForgetSentMutation,
}


def available_mutations() -> list:
    """Names accepted by :func:`build_explore_protocol`."""
    return sorted(MUTATIONS)


def build_explore_protocol(
    mutation: Optional[str], protocol: str, protocol_params: Dict
) -> CheckpointProtocol:
    """The protocol for an explore run, mutated if requested.

    Without a mutation this defers to the registry; with one, the
    protocol must be ``mutable`` (mutations are defined against it).
    """
    from repro.core.registry import build_protocol

    if mutation is None:
        return build_protocol(protocol, **protocol_params)
    factory = MUTATIONS.get(mutation)
    if factory is None:
        raise ConfigurationError(
            f"unknown mutation {mutation!r}; "
            f"available: {', '.join(available_mutations())}"
        )
    if protocol != "mutable":
        raise ConfigurationError(
            f"mutations are defined against the 'mutable' protocol, "
            f"not {protocol!r}"
        )
    return factory(**protocol_params)
