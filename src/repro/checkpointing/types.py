"""Core datatypes shared by all checkpointing protocols.

These mirror the paper's notation (§3.2): the *trigger* tuple
``(pid, inum)``, checkpoint sequence numbers (csn), the dependency bit
vector R, and the MR structure attached to checkpoint requests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional


class Trigger(NamedTuple):
    """Identifies one checkpointing initiation (paper §3.2).

    ``pid`` is the initiator; ``inum`` is the initiator's csn at the
    checkpoint it took when initiating.
    """

    pid: int
    inum: int


class CheckpointKind(enum.Enum):
    """Lifecycle classes of a checkpoint.

    MUTABLE lives on the MH (memory/local disk) and is either promoted to
    TENTATIVE (written to stable storage) or discarded. TENTATIVE becomes
    PERMANENT on commit or is discarded on abort. DISCONNECT is the local
    checkpoint an MH leaves with its MSS before disconnecting (§2.2).
    """

    MUTABLE = "mutable"
    TENTATIVE = "tentative"
    PERMANENT = "permanent"
    DISCONNECT = "disconnect"


def checkpoint_ids_state() -> int:
    """0. Kept for callers that saved the process-wide ckpt_id counter
    around runs of several systems; each system numbers its own now."""
    return 0


def restore_checkpoint_ids(next_id: int) -> None:
    """Does nothing; see :func:`checkpoint_ids_state`."""


#: per-peer message counts (peer pid -> messages); ``None`` where none
#: were kept
ChannelCounts = Optional[Dict[int, int]]


@dataclass
class CheckpointRecord:
    """One saved checkpoint of one process.

    Attributes
    ----------
    pid:
        The process whose state this is.
    csn:
        The checkpoint sequence number the process assigned to it.
    kind:
        Current lifecycle stage; mutated in place on promote/commit.
    time_taken:
        Simulated time at which the state was captured.
    ckpt_id:
        Unique within the run; issued by whoever owns the run (the
        system's or the scenario harness's ``checkpoint_ids``).
    state:
        Opaque application-state snapshot (whatever the application's
        ``capture_state`` returned); used by recovery.
    trigger:
        The initiation this checkpoint is associated with, or None for
        independent checkpoints (e.g. initial or disconnect checkpoints).
    sent / received:
        The process's per-peer message counts at capture time (peer pid
        -> messages sent to it / received from it), read only by the
        verification layer and by rollback, never by protocols. ``None``
        on a checkpoint of a process restored from an image written
        before processes counted: it carries no counts.
    size_bytes:
        Amount of data that must travel to stable storage to make this
        checkpoint tentative (incremental size, 512 KB by default).
    """

    pid: int
    csn: int
    kind: CheckpointKind
    time_taken: float
    ckpt_id: int
    state: Dict[str, Any] = field(default_factory=dict)
    trigger: Optional[Trigger] = None
    sent: ChannelCounts = None
    received: ChannelCounts = None
    size_bytes: int = 512 * 1024

    @property
    def is_stable(self) -> bool:
        """Whether the checkpoint has reached stable storage."""
        return self.kind in (CheckpointKind.TENTATIVE, CheckpointKind.PERMANENT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Ckpt p{self.pid} csn={self.csn} {self.kind.value}"
            f" trig={self.trigger} t={self.time_taken:.3f}>"
        )


@dataclass
class MutableCheckpointRecord:
    """The CP record of §3.2: a mutable checkpoint plus saved context.

    When a process takes a mutable checkpoint it stashes its *current* R
    vector and ``sent`` flag here and resets them; if the mutable
    checkpoint is later discarded, R and sent are OR-ed back (commit
    handling in §3.3.4), and if it is promoted, the saved R drives the
    request propagation.
    """

    checkpoint: CheckpointRecord
    trigger: Trigger
    #: the R vector stashed at capture time (a BitVector at runtime;
    #: plain List[bool] sequences are accepted from hand-built fixtures)
    saved_r: Any
    saved_sent: bool


@dataclass(frozen=True)
class MREntry:
    """One slot of the MR structure piggybacked on checkpoint requests.

    ``csn`` is the highest request csn known to have been sent toward the
    process; ``r`` records whether any sender of the request depended on
    the process. Together they let a receiver skip re-requesting
    processes that have already been covered (§3.3.2).
    """

    csn: int = 0
    r: bool = False

    def merged_with(self, csn: int, r: bool) -> "MREntry":
        """Pointwise max/or merge used by ``prop_cp``."""
        return MREntry(max(self.csn, csn), self.r or r)


def fresh_mr(n: int):
    """An all-zero MR vector for an N-process system.

    Returns a sparse :class:`~repro.checkpointing.state.MRVector`:
    indexing behaves exactly like the historical dense
    ``[MREntry()] * n`` list, but construction and per-hop copies cost
    O(entries set) instead of O(N) — the piggyback that made requests
    O(N) at large populations.
    """
    from repro.checkpointing.state import MRVector

    return MRVector(n)
