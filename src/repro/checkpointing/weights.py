"""Exact weights for Huang-style termination detection (paper §3.2, [16]).

The initiator starts with weight 1; every checkpoint request carries a
portion of the sender's weight and every reply returns the remainder to
the initiator, which concludes termination when its weight is back to 1
(Theorem 2 / Lemma 2).

Every share is a power of two — ``prop_cp`` halves what it holds once
per request it sends, and a reply hands a share back whole — so a share
``2**-k`` travels as the int ``k``, and the initiator sums what comes
back as an int numerator over ``2**K``, ``K`` the deepest exponent it
has seen. Floats would run out of mantissa after 53 halvings, and an
inexact ``weight == 1`` test would either deadlock or terminate early;
ints round nothing, and no rational arithmetic runs per message. Lemma
2's invariant — the weights at the initiator, at other processes, and in
transit always sum to exactly 1 — stays machine-checkable at any
instant: :class:`WeightLedger` keeps its books in ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Union

from repro.errors import ProtocolError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_weight(k: int) -> Fraction:
    """The exact value ``2**-k`` of a share that travels as ``k``."""
    if k < 0:
        raise ProtocolError(f"share exponent {k} < 0: weight above 1")
    return Fraction(1, 1 << k)


def weight_from_image(*args: Any) -> Union[int, Fraction]:
    """What a ``Fraction`` in a snapshot image loads as.

    An image written while weights were Fractions holds them in flight
    and at the initiator: a share ``2**-k`` loads as ``k``; any other
    dyadic value (zero, a running sum, a ledger book) stays a Fraction
    for its owner's ``__setstate__``, and a non-dyadic one is refused.
    """
    value = Fraction(*args)
    denominator = value.denominator
    if denominator & (denominator - 1):
        raise ProtocolError(f"weight {value} is not dyadic")
    return denominator.bit_length() - 1 if value.numerator == 1 else value


class WeightLedger:
    """Global bookkeeping of weights for invariant checking.

    Protocols do not need the ledger to function — it exists so tests can
    assert Lemma 2's invariant continuously. Each unit of weight is
    tracked in one of three places: a process, in-transit requests, or
    in-transit replies. Amounts come in as exponents ``k`` and are kept
    as the exact ``2**-k``.
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

    def move_to_request(self, pid: int, k: int) -> None:
        """Process ``pid`` put the share ``2**-k`` onto an outgoing request.

        All movement methods are no-ops when no initiation is being
        tracked (weights of an aborted initiation are dead).
        """
        if not self.active:
            return
        amount = as_weight(k)
        self._debit(pid, amount)
        self.in_requests += amount

    def request_arrived(self, pid: int, k: int) -> None:
        """A request carrying ``2**-k`` was received by ``pid``."""
        if not self.active:
            return
        amount = as_weight(k)
        self.in_requests -= amount
        if self.in_requests < 0:
            raise ProtocolError("negative in-flight request weight")
        self.at_process[pid] = self.at_process.get(pid, ZERO) + amount

    def move_to_reply(self, pid: int, k: int) -> None:
        """Process ``pid`` put ``2**-k`` onto a reply to the initiator."""
        if not self.active:
            return
        amount = as_weight(k)
        self._debit(pid, amount)
        self.in_replies += amount

    def reply_arrived(self, initiator: int, k: int) -> None:
        """A reply carrying ``2**-k`` reached the initiator."""
        if not self.active:
            return
        amount = as_weight(k)
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

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # an image loads a book that is some 2**-k as the int k
        books = {**state["at_process"], "requests": state["in_requests"],
                 "replies": state["in_replies"]}
        books = {at: as_weight(v) if type(v) is int else v for at, v in books.items()}
        self.__dict__.update(state, in_requests=books.pop("requests"),
                             in_replies=books.pop("replies"), at_process=books)

    def total(self) -> Fraction:
        """Sum over all locations; equals 1 while active (Lemma 2)."""
        return sum(self.at_process.values(), ZERO) + self.in_requests + self.in_replies

    def check(self) -> None:
        """Raise unless the Lemma 2 invariant holds."""
        if self.active and self.total() != ONE:
            raise ProtocolError(f"weight invariant violated: total={self.total()}")
