"""ASCII swimlane timelines of trace logs.

Renders one lane per process with the events of one run (or one
initiation) in order — the space-time diagrams the paper's figures are
drawn in, reconstructed from an actual execution. Used by the
`paper_figures` example and handy when debugging protocol traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.trace_index import owner_pid
from repro.sim.trace import TraceLog

#: glyphs per event kind (one lane cell each)
_GLYPHS = {
    "initiation": "I",
    "tentative": "T",
    "mutable": "m",
    "mutable_promoted": "P",
    "mutable_discarded": "d",
    "permanent": "#",
    "abort": "A",
    "blocked": "[",
    "unblocked": "]",
    "handoff_start": "H",
    "handoff_complete": "h",
    "disconnect": "D",
    "reconnect": "R",
}


def _fallback_glyph(kind: str) -> str:
    """Deterministic single-char glyph for kinds without a dedicated one.

    The first alphanumeric character of the kind name — stable across
    runs and versions, so timelines of traces containing new record
    kinds render (marked in the legend as approximate) instead of
    silently dropping lanes' events.
    """
    for char in kind:
        if char.isalnum():
            return char
    return "?"


def render_timeline(
    trace: TraceLog,
    n_processes: int,
    kinds: Optional[Iterable[str]] = None,
    width: int = 72,
    label_messages: bool = True,
) -> str:
    """Render the trace as one swimlane per process.

    Columns are event *positions* (causal order), not wall-clock time —
    matching how the paper's figures are drawn. Message sends/receives
    are linked by a shared column: ``>`` at the sender, ``<`` at the
    receiver (annotated with the peer pid when ``label_messages``).
    """
    wanted = set(kinds) if kinds is not None else None
    events: List[Tuple[int, str]] = []  # (pid, glyph)
    for record in trace:
        if wanted is not None and record.kind not in wanted:
            continue
        pid = owner_pid(record)
        if pid is None or pid >= n_processes:
            continue
        if record.kind == "comp_send":
            glyph = f">{record.get('dst')}" if label_messages else ">"
        elif record.kind == "comp_recv":
            glyph = f"<{record.get('src')}" if label_messages else "<"
        elif record.kind == "sys_send":
            subkind = record.get("subkind", "?")
            glyph = subkind[0]
        else:
            glyph = _GLYPHS.get(record.kind) or _fallback_glyph(record.kind)
        events.append((pid, glyph))

    cell = 3 if label_messages else 2
    per_row = max(1, (width - 6) // cell)
    lines: List[str] = []
    for chunk_start in range(0, len(events), per_row):
        chunk = events[chunk_start : chunk_start + per_row]
        lanes: Dict[int, List[str]] = {
            pid: ["." * (cell - 1)] * len(chunk) for pid in range(n_processes)
        }
        for column, (pid, glyph) in enumerate(chunk):
            lanes[pid][column] = glyph.ljust(cell - 1, ".")[: cell - 1]
        for pid in range(n_processes):
            lines.append(f"P{pid:<3d} |" + " ".join(lanes[pid]))
        lines.append("")
    legend = (
        "I initiate  T tentative  m mutable  P promoted  d discarded  "
        "# permanent  A abort  H/h handoff start/complete  D disconnect  "
        "R reconnect  >n send to n  <n recv from n  "
        "r/c/q request/commit/... (system msgs by first letter; "
        "unlisted kinds by first letter too)"
    )
    lines.append(legend)
    return "\n".join(lines)
