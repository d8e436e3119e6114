"""Causal wave forensics: explain *why* each checkpoint was taken.

:mod:`repro.obs` measures runs (metrics, profiler, leveled tracing);
this module *explains* them. The paper's central claim is min-process
coordination — only processes causally dependent on the initiator write
to stable storage — and the surveys rank algorithms by forced-checkpoint
and control-message counts without ever showing why a given process was
forced. Forensics reconstructs each checkpoint wave from the trace and
emits, for every tentative/mutable/promoted checkpoint, the causal chain
back to the initiator ("P3 forced because it received m17 from P1 after
P1's tentative, triggered by initiator P0").

Everything is computed from the :class:`~repro.sim.trace.TraceLog`
alone — never from protocol state — so the same forensics run on live
logs, archived JSONL exports (``repro-sim inspect``), explore
counterexamples, and flight-recorder dumps. Waves and message pairs come
from :class:`~repro.analysis.trace_index.TraceIndex`; this module adds
the happened-before graph (:class:`EventGraph`, which every rendered
chain step is checked against) and the renderings. Message-level detail
needs DEBUG records; on an INFO-only trace the report degrades
gracefully to the lifecycle skeleton.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.minimality import MinimalityReport, must_checkpoint_set
from repro.analysis.trace_index import (
    TraceIndex,
    TraceSource,
    Wave,
    owner_pid,
)
from repro.analysis.vector_clock import VectorClock, happened_before
from repro.checkpointing.types import Trigger
from repro.sim.trace import TraceRecord

__all__ = [
    "CausalStep",
    "EventGraph",
    "ForensicReport",
    "WaveReport",
    "build_forensics",
]


class EventGraph:
    """Happened-before over trace positions, via replayed vector clocks.

    The trace is a linearization of the run (sends precede their
    receives), so one forward pass assigns every owned record a vector
    timestamp: tick the owner's clock, merging first across the record's
    incoming causal edges —

    * ``comp_recv`` / ``mutable`` ← the ``comp_send`` the index pairs
      with its ``msg_id``;
    * ``tentative`` (via request or promotion) ← the latest ``sys_send``
      request from its ``from_pid`` for the same trigger.

    ``happened_before(a, b)`` then delegates to
    :func:`repro.analysis.vector_clock.happened_before` on the stored
    snapshots. Positions without an owner (network-layer records keyed
    by a host name that names no process) carry no clock and are never
    ordered.
    """

    def __init__(self, trace: TraceSource, n_processes: int) -> None:
        index = TraceIndex.of(trace)
        self.n = n_processes
        self.clock_at: Dict[int, Tuple[int, ...]] = {}
        messages = index.messages.by_id
        waves = index.waves.by_trigger
        clocks: Dict[int, VectorClock] = {}
        request_clock: Dict[Tuple[int, int, Any], Tuple[int, ...]] = {}
        merged_request: Set[Tuple[int, Any]] = set()
        for position, record in enumerate(index.records):
            pid = owner_pid(record)
            if pid is None or pid >= self.n:
                continue
            vc = clocks.get(pid)
            if vc is None:
                vc = clocks[pid] = VectorClock(pid, self.n)
            kind = record.kind
            trigger = record.get("trigger")
            # A record naming a message (its receive, the mutable it
            # forced) is after that message's send; the send itself finds
            # no earlier clock here.
            message = messages.get(record.get("msg_id"))
            if message is not None and message.send in self.clock_at:
                vc.merge(self.clock_at[message.send])
            if (
                kind in ("sys_send", "tentative")
                and isinstance(trigger, Trigger)
                and pid != trigger.pid
                and (pid, trigger) not in merged_request
            ):
                # There is no request-receive record, so the merge point
                # for an incoming checkpoint request is the handler's
                # *first* record tagged with the wave trigger (a
                # propagated request, a reply, or the tentative itself —
                # all emitted while handling). The exact requester comes
                # from the tentative's from_pid attribution.
                wave = waves.get(trigger)
                tentative = wave.tentatives.get(pid) if wave is not None else None
                src = tentative[1].get("from_pid") if tentative else None
                stamp = request_clock.get((src, pid, trigger))
                if stamp is not None:
                    vc.merge(stamp)
                    merged_request.add((pid, trigger))
            vc.tick()
            snapshot = vc.snapshot()
            self.clock_at[position] = snapshot
            if kind == "sys_send" and record.get("subkind") == "request":
                request_clock[
                    (pid, record.get("dst"), trigger)
                ] = snapshot

    def happened_before(self, a: int, b: int) -> Optional[bool]:
        """Whether position ``a`` causally precedes ``b``.

        Returns ``None`` when either position carries no clock (unowned
        record, or outside the replayed window).
        """
        clock_a = self.clock_at.get(a)
        clock_b = self.clock_at.get(b)
        if clock_a is None or clock_b is None:
            return None
        return happened_before(clock_a, clock_b)


@dataclass
class CausalStep:
    """One hop of a causal chain, with its verification verdict."""

    text: str
    position: Optional[int] = None
    verified: Optional[bool] = None  # vs. the previous step; None = n/a

    def render(self) -> str:
        if self.verified is False:
            return f"{self.text}  [causal order UNVERIFIED]"
        return self.text


@dataclass
class WaveReport(Wave):
    """One checkpoint wave of the index, numbered, with its verdict."""

    index: int = 0
    minimality: Optional[MinimalityReport] = None

    @property
    def outcome(self) -> str:
        """commit | abort | partial_commit | unresolved (first recorded)."""
        return self.outcomes[0][1] if self.outcomes else "unresolved"

    @property
    def end_time(self) -> Optional[float]:
        return self.outcomes[0][2] if self.outcomes else None

    @property
    def forced(self) -> Set[int]:
        """Processes that wrote a stable (tentative) checkpoint."""
        return set(self.tentatives)

    @property
    def judged(self) -> bool:
        """Whether the closure comparison could be made at all."""
        return self.minimality is not None and self.minimality.judged

    @property
    def justified(self) -> Optional[Set[int]]:
        return self.minimality.justified if self.judged else None

    @property
    def required(self) -> Optional[Set[int]]:
        return self.minimality.required if self.judged else None

    def label(self) -> str:
        return f"P{self.trigger.pid}#{self.trigger.inum}"

    # -- causal chains -----------------------------------------------------
    def _parent(self, pid: int) -> Optional[int]:
        """Who dragged ``pid`` into the wave (None for the initiator)."""
        entry = self.tentatives.get(pid)
        if entry is not None:
            return entry[1].get("from_pid")
        entry = self.mutables.get(pid)
        if entry is not None:
            return entry[1].get("from_pid")
        return None

    def cascade_depth(self) -> int:
        """Longest forced-by chain from the initiator (0 = initiator only).

        This is the wave's near-avalanche measure: depth 1 means every
        forced process was requested directly by the initiator; greater
        depths mean requests (or tagged messages) propagated through
        intermediaries — the cascades that, without mutable checkpoints,
        become the §3.1.1 avalanche.
        """
        depth = 0
        for pid in list(self.tentatives) + list(self.mutables):
            depth = max(depth, len(self._ancestry(pid)) - 1)
        return depth

    def deepest_chain(self) -> List[int]:
        """The pid path of the longest forced-by chain, initiator first."""
        best: List[int] = [self.initiator]
        for pid in list(self.tentatives) + list(self.mutables):
            path = self._ancestry(pid)
            if len(path) > len(best):
                best = path
        return best

    def _ancestry(self, pid: int) -> List[int]:
        """Chain of pids from the initiator down to ``pid``."""
        path = [pid]
        seen = {pid}
        current = pid
        while current != self.initiator:
            parent = self._parent(current)
            if parent is None or parent in seen:
                break
            path.append(parent)
            seen.add(parent)
            current = parent
        path.reverse()
        return path

    def chain_steps(self, pid: int, graph: Optional[EventGraph] = None) -> List[CausalStep]:
        """The causal chain explaining ``pid``'s role in this wave.

        Returns an empty list when ``pid`` took part in neither a
        tentative nor a mutable checkpoint for this wave.
        """
        if pid not in self.tentatives and pid not in self.mutables:
            return []
        steps: List[CausalStep] = []
        path = self._ancestry(pid)
        steps.append(
            CausalStep(
                f"P{self.initiator} initiated wave {self.label()} "
                f"at t={self.start_time:.3f}",
                position=self.start_position,
            )
        )
        if path and path[0] != self.initiator:
            steps.append(
                CausalStep(
                    f"(chain root P{path[0]} has no recorded cause — "
                    "attribution data missing from the trace)"
                )
            )
        for hop in range(1, len(path)):
            parent, child = path[hop - 1], path[hop]
            steps.extend(self._hop_steps(parent, child))
        # Terminal status for mutable-only participants.
        if pid not in self.tentatives and pid in self.mutables:
            if pid in self.discarded_mutables:
                steps.append(
                    CausalStep(
                        f"P{pid}'s mutable checkpoint was discarded at "
                        f"{self.outcome} — never written to stable storage "
                        "(the paper's avoided forced checkpoint)"
                    )
                )
        if graph is not None:
            self._verify(steps, graph)
        return steps

    def _hop_steps(self, parent: int, child: int) -> List[CausalStep]:
        """Steps explaining how ``parent`` dragged ``child`` in."""
        steps: List[CausalStep] = []
        mutable = self.mutables.get(child)
        tentative = self.tentatives.get(child)
        if mutable is not None:
            position, record = mutable
            msg_id = record.get("msg_id")
            from_pid = record.get("from_pid")
            tagged = f"tagged message m{msg_id}" if msg_id is not None else (
                "a tagged message"
            )
            steps.append(
                CausalStep(
                    f"P{child} received {tagged} from P{from_pid} while "
                    f"having sent since its last checkpoint — took mutable "
                    f"checkpoint c{record.get('ckpt_id')} at "
                    f"t={record.time:.3f}",
                    position=position,
                )
            )
        if tentative is not None:
            position, record = tentative
            via = record.get("via")
            from_pid = record.get("from_pid")
            if via == "promotion":
                steps.append(
                    CausalStep(
                        f"checkpoint request from P{from_pid} promoted "
                        f"P{child}'s mutable checkpoint to tentative "
                        f"c{record.get('ckpt_id')} at t={record.time:.3f}",
                        position=position,
                    )
                )
            elif via == "initiator":
                pass  # covered by the initiation step
            else:
                request = self._request_record(from_pid, child, position)
                sent = ""
                if request is not None:
                    sent = f" (request sent t={request.time:.3f})"
                steps.append(
                    CausalStep(
                        f"P{from_pid} sent a checkpoint request to "
                        f"P{child}{sent} — P{child} took tentative "
                        f"checkpoint c{record.get('ckpt_id')} at "
                        f"t={record.time:.3f}",
                        position=position,
                    )
                )
        return steps

    def _request_record(
        self, from_pid: Optional[int], dst: int, before: int
    ) -> Optional[TraceRecord]:
        """The latest tagged request from_pid->dst before position ``before``."""
        found = None
        for position, record in self.control_records:
            if position >= before:
                break
            if (
                record.get("subkind") == "request"
                and record.get("src") == from_pid
                and record.get("dst") == dst
            ):
                found = record
        return found

    def _verify(self, steps: List[CausalStep], graph: EventGraph) -> None:
        """Check that every positioned step is causally after the initiation.

        The chain is an attribution tree, not a total order — a parent
        may propagate the request before taking its own tentative, so
        consecutive steps need not be happened-before-ordered. What the
        chain *claims* is that each checkpoint traces back to the
        initiator, and that is what each step is verified against.
        """
        root: Optional[int] = None
        for step in steps:
            if step.position is None:
                continue
            if root is None:
                root = step.position
                continue
            if step.position != root:
                step.verified = graph.happened_before(root, step.position)

    # -- renderings --------------------------------------------------------
    def summary_lines(self) -> List[str]:
        """The wave-level report as text lines."""
        duration = (
            f" ({self.end_time - self.start_time:.3f}s)"
            if self.end_time is not None
            else ""
        )
        ended = (
            f", {self.outcome} at t={self.end_time:.3f}{duration}"
            if self.end_time is not None
            else f", {self.outcome}"
        )
        lines = [
            f"wave {self.index}: {self.label()} — initiated by "
            f"P{self.initiator} at t={self.start_time:.3f}{ended}"
        ]
        forced = sorted(self.forced)
        lines.append(f"  forced (stable writes) : {forced}")
        if self.minimality is not None and not self.judged:
            lines.append(
                "  justified closure      : not judged: message records evicted"
            )
        elif self.minimality is not None:
            justified = sorted(self.justified or ())
            required = sorted(self.required or ())
            if set(forced) == set(justified):
                verdict = "forced set == justified closure (min-process)"
            elif set(forced) <= set(justified):
                verdict = "forced set within justified closure"
            else:
                rogue = sorted(set(forced) - set(justified))
                verdict = f"UNJUSTIFIED participants {rogue} (protocol bug?)"
            lines.append(
                f"  justified closure      : {justified}   "
                f"(exact z-closure {required}) — {verdict}"
            )
        mutable_only = sorted(set(self.mutables) - set(self.tentatives))
        if mutable_only:
            lines.append(
                f"  mutable only (no stable write) : {mutable_only}"
            )
        depth = self.cascade_depth()
        chain = self.deepest_chain()
        chain_text = " -> ".join(f"P{p}" for p in chain) if len(chain) > 1 else "-"
        lines.append(f"  cascade depth          : {depth} ({chain_text})")
        if self.control_messages or self.broadcasts:
            parts = [
                f"{subkind}={count}"
                for subkind, count in sorted(self.control_messages.items())
            ]
            broadcast_parts = [
                f"{subkind}={count}"
                for subkind, count in sorted(self.broadcasts.items())
            ]
            accounting = " ".join(parts) if parts else "-"
            if broadcast_parts:
                accounting += f"; broadcasts: {' '.join(broadcast_parts)}"
            lines.append(f"  control messages       : {accounting}")
        for pid in sorted(self.tentatives):
            position, record = self.tentatives[pid]
            via = record.get("via")
            if via == "initiator":
                cause = "initiator"
            elif via == "promotion":
                mutable = self.mutables.get(pid)
                detail = ""
                if mutable is not None:
                    mut_record = mutable[1]
                    detail = (
                        f" of mutable on m{mut_record.get('msg_id')} "
                        f"from P{mut_record.get('from_pid')}"
                    )
                cause = f"promotion{detail} by request from P{record.get('from_pid')}"
            elif via == "request":
                cause = f"request from P{record.get('from_pid')}"
            else:
                cause = "cause not recorded"
            promoted = " -> permanent" if pid in self.permanents else ""
            lines.append(
                f"  P{pid}: tentative c{record.get('ckpt_id')} at "
                f"t={record.time:.3f} via {cause}{promoted}"
            )
        return lines

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary of the wave."""
        return {
            "index": self.index,
            "trigger": [self.trigger.pid, self.trigger.inum],
            "initiator": self.initiator,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "outcome": self.outcome,
            "forced": sorted(self.forced),
            "required": sorted(self.required) if self.required is not None else None,
            "justified": (
                sorted(self.justified) if self.justified is not None else None
            ),
            "mutables": sorted(self.mutables),
            "promoted": sorted(self.promoted),
            "discarded_mutables": sorted(self.discarded_mutables),
            "permanents": sorted(self.permanents),
            "cascade_depth": self.cascade_depth(),
            "deepest_chain": self.deepest_chain(),
            "control_messages": dict(sorted(self.control_messages.items())),
            "broadcasts": dict(sorted(self.broadcasts.items())),
        }


@dataclass
class ForensicReport:
    """All waves of one trace, with the happened-before graph."""

    waves: List[WaveReport]
    graph: EventGraph
    n_processes: int
    has_debug: bool
    #: message records a flight recorder dropped before this reading
    evicted: int = 0

    def wave(self, index: int) -> WaveReport:
        for wave in self.waves:
            if wave.index == index:
                return wave
        raise IndexError(f"no wave with index {index}")

    def explain(self, pid: int, wave_index: Optional[int] = None) -> str:
        """The causal chains for ``pid``, one block per wave it touched."""
        waves = (
            [self.wave(wave_index)] if wave_index is not None else self.waves
        )
        blocks: List[str] = []
        for wave in waves:
            steps = wave.chain_steps(pid, self.graph)
            if not steps:
                continue
            role = (
                "initiator" if pid == wave.initiator
                else "tentative" if pid in wave.tentatives
                else "mutable"
            )
            lines = [f"P{pid} in wave {wave.index} ({wave.label()}) — {role}:"]
            lines.extend(f"  {i + 1}. {s.render()}" for i, s in enumerate(steps))
            blocks.append("\n".join(lines))
        if not blocks:
            scope = (
                f"wave {wave_index}" if wave_index is not None else "any wave"
            )
            return f"P{pid} took no checkpoint in {scope}."
        return "\n\n".join(blocks)

    def narrative(
        self,
        wave_index: Optional[int] = None,
        explain: Optional[int] = None,
    ) -> str:
        """The full text report: wave summaries plus optional chains."""
        waves = (
            [self.wave(wave_index)] if wave_index is not None else self.waves
        )
        lines: List[str] = []
        if not waves:
            lines.append("no checkpoint waves found in this trace")
        if not self.has_debug and waves:
            lines.append(
                "(INFO-only trace: message-level attribution and control-"
                "message accounting are unavailable)"
            )
        if self.evicted and waves:
            judged = sum(1 for wave in waves if wave.judged)
            committed = sum(1 for wave in waves if wave.minimality is not None)
            lines.append(
                f"(truncated trace: {self.evicted} message records evicted; "
                f"closure judged for {judged} of {committed} committed waves)"
            )
        for wave in waves:
            lines.extend(wave.summary_lines())
            lines.append("")
        if explain is not None:
            lines.append(self.explain(explain, wave_index))
        return "\n".join(lines).rstrip() + "\n"

    def wave_narrative(self, wave_index: int) -> str:
        """One wave's summary plus every participant's causal chain."""
        wave = self.wave(wave_index)
        lines = list(wave.summary_lines())
        for pid in sorted(set(wave.tentatives) | set(wave.mutables)):
            lines.append("")
            lines.append(self.explain(pid, wave_index))
        return "\n".join(lines).rstrip() + "\n"

    # -- exports -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_processes": self.n_processes,
            "has_debug": self.has_debug,
            "waves": [wave.to_dict() for wave in self.waves],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_mermaid(self, wave_index: int) -> str:
        """A Mermaid sequence diagram of one wave's coordination."""
        wave = self.wave(wave_index)
        pids: Set[int] = {wave.initiator}
        pids |= set(wave.tentatives) | set(wave.mutables)
        for _, record in wave.control_records:
            pids.add(record.get("src"))
            if record.get("dst") is not None:
                pids.add(record.get("dst"))
        pids.discard(None)  # type: ignore[arg-type]
        lines = ["sequenceDiagram"]
        for pid in sorted(pids):
            lines.append(f"    participant P{pid}")
        events: List[Tuple[int, str]] = [
            (
                wave.start_position,
                f"    Note over P{wave.initiator}: initiate {wave.label()}",
            )
        ]
        for pid, (position, record) in wave.tentatives.items():
            lines_for = (
                f"    Note over P{pid}: tentative c{record.get('ckpt_id')}"
            )
            events.append((position, lines_for))
        for pid, (position, record) in wave.mutables.items():
            from_pid = record.get("from_pid")
            if from_pid is not None and record.get("msg_id") is not None:
                events.append(
                    (
                        position,
                        f"    P{from_pid}->>P{pid}: m{record.get('msg_id')} (tagged)",
                    )
                )
            events.append(
                (
                    position,
                    f"    Note over P{pid}: mutable c{record.get('ckpt_id')}",
                )
            )
        for position, record in wave.control_records:
            src, dst = record.get("src"), record.get("dst")
            subkind = record.get("subkind")
            arrow = "-->>" if subkind == "reply" else "->>"
            events.append((position, f"    P{src}{arrow}P{dst}: {subkind}"))
        if wave.end_time is not None:
            events.append(
                (
                    1 << 60,
                    f"    Note over P{wave.initiator}: {wave.outcome} {wave.label()}",
                )
            )
        events.sort(key=lambda pair: pair[0])
        lines.extend(text for _, text in events)
        return "\n".join(lines) + "\n"

    def to_dot(self, wave_index: int) -> str:
        """A Graphviz digraph of one wave's forced-by / dependency DAG."""
        wave = self.wave(wave_index)
        name = f"wave{wave.index}"
        lines = [
            f"digraph {name} {{",
            "  rankdir=LR;",
            '  node [shape=box, fontname="monospace"];',
        ]
        pids = sorted({wave.initiator} | set(wave.tentatives) | set(wave.mutables))
        for pid in pids:
            if pid == wave.initiator:
                label = f"P{pid}\\ninitiator"
                shape = ', style=filled, fillcolor="lightblue"'
            elif pid in wave.tentatives:
                kind = "promoted" if pid in wave.promoted else "tentative"
                label = f"P{pid}\\n{kind}"
                shape = ""
            else:
                label = f"P{pid}\\nmutable (discarded)"
                shape = ', style=dashed'
            lines.append(f'  p{pid} [label="{label}"{shape}];')
        for pid in pids:
            parent = wave._parent(pid)
            if parent is None or parent == pid:
                continue
            mutable = wave.mutables.get(pid)
            if mutable is not None and pid not in wave.promoted:
                label = f"m{mutable[1].get('msg_id')} (tagged)"
            elif pid in wave.promoted and mutable is not None:
                label = f"m{mutable[1].get('msg_id')} + request"
            else:
                label = "request"
            lines.append(f'  p{parent} -> p{pid} [label="{label}"];')
        if wave.minimality is not None:
            for src, dst in sorted(wave.minimality.dependency_edges):
                if src in pids and dst in pids:
                    lines.append(
                        f'  p{src} -> p{dst} '
                        '[style=dotted, color=gray, label="z-dep"];'
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _infer_n_processes(index: TraceIndex) -> int:
    highest = -1
    for record in index.records:
        pid = owner_pid(record)
        if pid is not None and pid > highest:
            highest = pid
        trigger = record.get("trigger")
        if isinstance(trigger, Trigger) and trigger.pid > highest:
            highest = trigger.pid
    return highest + 1


def build_forensics(
    trace: TraceSource, n_processes: Optional[int] = None
) -> ForensicReport:
    """Reconstruct every checkpoint wave of ``trace``.

    Works on live logs, imported JSONL archives, and flight-recorder
    views alike. ``n_processes`` is inferred from the records when not
    given.
    """
    index = TraceIndex.of(trace)
    if n_processes is None:
        n_processes = _infer_n_processes(index)
    has_debug = index.first_message is not None
    waves: List[WaveReport] = []
    for wave in index.waves.by_trigger.values():
        if wave.initiator is None or not isinstance(wave.trigger, Trigger):
            continue
        report = WaveReport(**vars(wave), index=len(waves))
        if has_debug and wave.last_time("commit") is not None:
            report.minimality = must_checkpoint_set(index, wave.trigger)
        waves.append(report)
    return ForensicReport(
        waves=waves,
        graph=EventGraph(index, n_processes),
        n_processes=n_processes,
        has_debug=has_debug,
        evicted=index.evicted,
    )
