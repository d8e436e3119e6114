"""The per-commit z-closure that ``check_minimality``'s one sweep replaced.

It scans the receives up to each commit's last capture, once per commit,
and is kept here verbatim as the reference every report must equal.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.minimality import MinimalityReport, _reachable
from repro.analysis.trace_index import TraceIndex
from repro.checkpointing.types import Trigger


def must_checkpoint_set(index: TraceIndex, trigger: Trigger) -> MinimalityReport:
    participants: Set[int] = set()
    ckpt_pos: Dict[int, int] = {}
    prev_pos: Dict[int, int] = {}
    for pid, entries in index.captures.stable.items():
        for position, trig, _ in entries:
            if trig == trigger:
                participants.add(pid)
                ckpt_pos[pid] = position
        bound = ckpt_pos.get(pid)
        candidates = [
            position
            for position, trig, _ in entries
            if trig != trigger and (bound is None or position < bound)
        ]
        prev_pos[pid] = max(candidates) if candidates else -1

    graph: Dict[int, Set[int]] = {}
    justified_graph: Dict[int, Set[int]] = {}
    must_edges: List[Tuple[int, int]] = []
    horizon = max(ckpt_pos.values(), default=0)
    for _, src, dst, send, recv in index.messages.received:
        if recv >= horizon:
            break
        cut = ckpt_pos.get(dst)
        if cut is None or recv >= cut:
            continue
        if send is None and not index.evicted:
            continue
        if recv > prev_pos.get(dst, -1):
            justified_graph.setdefault(dst, set()).add(src)
        if send is None or send <= prev_pos.get(src, -1):
            continue
        graph.setdefault(dst, set()).add(src)
        must_edges.append((src, dst))

    required = _reachable(graph, trigger.pid)
    justified = _reachable(justified_graph, trigger.pid) | required
    return MinimalityReport(
        trigger=trigger,
        participants=participants,
        required=required,
        dependency_edges=must_edges,
        justified=justified,
        judged=participants <= justified
        or all(index.retained_since(prev_pos[pid]) for pid in participants),
    )
