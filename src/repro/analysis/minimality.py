"""Independent verification of Theorem 3 (min-process property).

For one committed initiation, the set of processes that *must* take a
new stable checkpoint is the closure of the z-dependency relation the
paper traces in §2.4: starting from the initiator, process Q must
checkpoint if some process P that must checkpoint recorded (in its new
checkpoint) the receipt of a message that Q sent after Q's previous
stable checkpoint — otherwise that message would be an orphan.

:func:`check_minimality` computes this closure for every committed
initiation purely from the trace log, in one pass over the receives (no
protocol state; positions and message pairs come from
:class:`~repro.analysis.trace_index.TraceIndex`), and compares it with
the processes that actually took tentative checkpoints:

* a member of the closure missing from the participants ⇒ the algorithm
  took *too few* checkpoints (consistency is in danger);
* a participant outside the closure ⇒ *too many* (minimality violated).

The paper's caveat (§4) applies: checkpoints forced only by messages
received *during* the checkpointing (request-delay artefacts) are part
of the closure here because the closure is computed against the actual
capture points, so the comparison is exact rather than approximate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.trace_index import TraceIndex, TraceSource
from repro.checkpointing.types import Trigger


@dataclass
class MinimalityReport:
    """Outcome of the Theorem 3 check for one initiation."""

    trigger: Trigger
    participants: Set[int]
    required: Set[int]
    justified: Set[int]
    dependency_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: False when some participant has no dependency basis in a
    #: truncated log whose evicted message records reach into the wave's
    #: dependency window: the basis may have been evicted, so
    #: ``unjustified`` is empty. ``required`` and ``justified`` are then
    #: lower bounds (``missing`` stays a verdict: its edges are real).
    judged: bool = True

    @property
    def missing(self) -> Set[int]:
        """Processes that had to checkpoint but did not (unsafe!)."""
        return self.required - self.participants

    @property
    def excess(self) -> Set[int]:
        """Processes that checkpointed without being required."""
        return self.participants - self.required

    @property
    def unjustified(self) -> Set[int]:
        """Participants with no dependency basis at all.

        The protocol's R bits over-approximate the exact z-closure: a
        requester whose csn knowledge of a sender is fresher than the
        message that set its R bit cannot tell the dependency is already
        covered by the sender's newer stable checkpoint (the paper's
        csn_i[j] is updated by requests as well as by computation
        messages). Such checkpoints are *excess* against the exact
        closure but still *justified* — some participant really did
        record a receive from them. A participant outside even the
        justified closure indicates a protocol bug (avalanche, planted
        mutation), not the known over-approximation.
        """
        return self.participants - self.justified if self.judged else set()

    @property
    def minimal(self) -> bool:
        return not self.missing and not self.excess

    def __str__(self) -> str:
        return (
            f"initiation {self.trigger}: participants={sorted(self.participants)} "
            f"required={sorted(self.required)} missing={sorted(self.missing)} "
            f"excess={sorted(self.excess)}"
        )


def _reachable(adjacency: Dict[int, Set[int]], root: int) -> Set[int]:
    """Every node reachable from ``root`` (``root`` included)."""
    seen = {root}
    stack = [root]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _window(stable: Dict[int, list], trigger: Trigger) -> Tuple[Set[int], dict, dict]:
    """Participants of ``trigger``, pid -> its capture for it and pid ->
    its previous stable capture: the newest one strictly before this
    initiation's checkpoint (or the newest overall for outsiders)."""
    ckpt_pos: Dict[int, int] = {}
    prev_pos: Dict[int, int] = {}
    for pid, entries in stable.items():
        for position, trig, _ in entries:
            if trig == trigger:
                ckpt_pos[pid] = position
        bound = ckpt_pos.get(pid)
        prev_pos[pid] = max((position for position, trig, _ in entries if trig != trigger
                             and (bound is None or position < bound)), default=-1)
    return set(ckpt_pos), ckpt_pos, prev_pos


def _closures(index: TraceIndex, triggers: List[Trigger]) -> List[MinimalityReport]:
    """The reports of ``triggers``, from one pass over the receives.

    The z-dependency graph has an edge Q -> P when P, if it checkpoints
    for the trigger, records a receive whose send is after Q's previous
    checkpoint (so Q is dragged in). The justified graph keeps the edge
    even when the send is already covered: what the protocol's R bit
    carries. A receive is recorded in the windows whose capture at dst
    follows it; only the first can justify it (a later one's previous
    capture at dst follows the receive).
    """
    asked, triggers = triggers, list(dict.fromkeys(triggers))  # a trigger may commit twice
    stable = index.captures.stable
    windows = [_window(stable, trigger) for trigger in triggers]
    #: per window: its must graph, justified graph and must edges
    found = [(defaultdict(set), defaultdict(set), []) for _ in triggers]
    #: pid -> (capture, previous captures, *found) of each window it is
    #: in, latest first: a stack the receives pop as they pass the captures
    pending: Dict[int, list] = {}
    for (_, cut, prev_pos), graphs in zip(windows, found):
        for pid, position in cut.items():
            pending.setdefault(pid, []).append((position, prev_pos, *graphs))
    for stack in pending.values():
        stack.sort(key=lambda entry: entry[0], reverse=True)
    evicted = index.evicted
    for _, src, dst, send, recv in index.messages.received:
        stack = pending.get(dst)
        while stack and stack[-1][0] <= recv:
            stack.pop()
        if not stack:
            continue  # not recorded in any of dst's checkpoints
        if send is None and not evicted:
            continue  # no send record on a complete log: find_orphans' case
        _, prev_pos, _, justified, _ = stack[-1]
        if recv > prev_pos[dst]:
            justified[dst].add(src)
        if send is None:
            continue  # evicted: no must edge
        for _, prev_pos, graph, _, edges in stack:
            if send > prev_pos.get(src, -1):
                graph[dst].add(src)
                edges.append((src, dst))
    reports = {}
    for trigger, (participants, _, prev_pos), (graph, justified_graph, edges) in zip(
        triggers, windows, found
    ):
        required = _reachable(graph, trigger.pid)
        justified = _reachable(justified_graph, trigger.pid) | required
        reports[trigger] = MinimalityReport(
            trigger=trigger,
            participants=participants,
            required=required,
            dependency_edges=edges,
            justified=justified,
            # Evicted records can only add edges: a closure that already
            # covers the participants stands, one that does not is open.
            judged=participants <= justified
            or all(index.retained_since(prev_pos[pid]) for pid in participants),
        )
    return [reports[trigger] for trigger in asked]


def check_minimality(trace: TraceSource) -> List[MinimalityReport]:
    """Reports for every committed initiation in the trace."""
    index = TraceIndex.of(trace)
    return _closures(index, [trigger for _, trigger in index.commits()])
