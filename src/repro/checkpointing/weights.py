"""Exact weights for Huang-style termination detection (paper §3.2, [16]).

The initiator starts with weight 1; every checkpoint request carries a
portion of the sender's weight and every reply returns the remainder to
the initiator, which concludes termination when its weight is back to 1
(Theorem 2 / Lemma 2).

Weights are ``fractions.Fraction`` rather than floats: repeated halving
produces dyadic rationals whose exponents quickly exceed what binary
floating point can sum exactly, and an inexact ``weight == 1`` test would
either deadlock or terminate early. With exact arithmetic Lemma 2's
invariant — the weights at the initiator, at other processes, and in
transit always sum to exactly 1 — is machine-checkable at any instant
(see :meth:`WeightLedger.total`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

from repro.errors import ProtocolError

WeightLike = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_weight(value: WeightLike) -> Fraction:
    """Coerce to an exact Fraction weight, validating the range.

    A ``Fraction`` comes back unchanged (the same object).
    """
    w = value if isinstance(value, Fraction) else Fraction(value)
    if w < 0 or w > 1:
        raise ProtocolError(f"weight out of range [0, 1]: {w}")
    return w


def split(weight: Fraction) -> Fraction:
    """Halve a weight, as ``prop_cp`` does per outgoing request.

    Returns the half that travels with the request; the caller keeps the
    same amount.
    """
    if weight <= 0:
        raise ProtocolError(f"cannot split non-positive weight {weight}")
    return weight / 2


class WeightLedger:
    """Global bookkeeping of weights for invariant checking.

    Protocols do not need the ledger to function — it exists so tests can
    assert Lemma 2's invariant continuously. Each unit of weight is
    tracked in one of three places: a process, in-transit requests, or
    in-transit replies.
    """

    def __init__(self) -> None:
        self.at_process: Dict[int, Fraction] = {}
        self.in_requests: Fraction = ZERO
        self.in_replies: Fraction = ZERO
        self.active = False

    def begin(self, initiator: int) -> None:
        """Start an initiation: the initiator holds weight 1."""
        if self.active:
            raise ProtocolError("weight ledger already tracking an initiation")
        self.at_process = {initiator: ONE}
        self.in_requests = ZERO
        self.in_replies = ZERO
        self.active = True

    def end(self) -> None:
        """Finish the initiation (after the initiator regained weight 1)."""
        self.active = False

    def move_to_request(self, pid: int, amount: Fraction) -> None:
        """Process ``pid`` put ``amount`` onto an outgoing request.

        All movement methods are no-ops when no initiation is being
        tracked (weights of an aborted initiation are dead).
        """
        if not self.active:
            return
        self._debit(pid, amount)
        self.in_requests += amount

    def request_arrived(self, pid: int, amount: Fraction) -> None:
        """A request carrying ``amount`` was received by ``pid``."""
        if not self.active:
            return
        self.in_requests -= amount
        if self.in_requests < 0:
            raise ProtocolError("negative in-flight request weight")
        self.at_process[pid] = self.at_process.get(pid, ZERO) + amount

    def move_to_reply(self, pid: int, amount: Fraction) -> None:
        """Process ``pid`` put ``amount`` onto a reply to the initiator."""
        if not self.active:
            return
        self._debit(pid, amount)
        self.in_replies += amount

    def reply_arrived(self, initiator: int, amount: Fraction) -> None:
        """A reply carrying ``amount`` reached the initiator."""
        if not self.active:
            return
        self.in_replies -= amount
        if self.in_replies < 0:
            raise ProtocolError("negative in-flight reply weight")
        self.at_process[initiator] = self.at_process.get(initiator, ZERO) + amount

    def _debit(self, pid: int, amount: Fraction) -> None:
        held = self.at_process.get(pid, ZERO)
        if amount > held:
            raise ProtocolError(
                f"process {pid} tried to move weight {amount} but holds {held}"
            )
        self.at_process[pid] = held - amount

    def total(self) -> Fraction:
        """Sum over all locations; equals 1 while active (Lemma 2)."""
        return sum(self.at_process.values(), ZERO) + self.in_requests + self.in_replies

    def check(self) -> None:
        """Raise unless the Lemma 2 invariant holds."""
        if self.active and self.total() != ONE:
            raise ProtocolError(f"weight invariant violated: total={self.total()}")
