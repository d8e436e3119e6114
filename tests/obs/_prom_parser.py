"""Validating parser for the Prometheus text exposition (format 0.0.4).

The service renders ``GET /metrics.prom`` with
:func:`repro.obs.prom.render_prometheus`; nothing at runtime reads it
back. This parser is what the tests and CI's ``metrics-smoke`` job
(``PYTHONPATH=.``) check a scrape with: ``# HELP``/``# TYPE``
discipline, sample/family agreement, counter non-negativity and
histogram bucket monotonicity, raising ``ValueError`` with a line number
on the first violation. Like ``tests/checkpointing/_trace_reference.py``
it is a test helper, not production code. Stdlib only.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"(?:,|$)'
)

_UNESCAPES = {"n": "\n", "\\": "\\", '"': '"'}


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        char = value[i]
        if char == "\\" and i + 1 < len(value):
            out.append(_UNESCAPES.get(value[i + 1], "\\" + value[i + 1]))
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _parse_value(text: str, lineno: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {text!r}") from None


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse and validate exposition text.

    Returns ``{family: {"type", "help", "samples": [(name, labels, value)]}}``
    with ``labels`` as a sorted tuple of ``(key, value)`` pairs. Raises
    ``ValueError`` (with the offending line number) on malformed lines,
    samples without a ``# TYPE``, missing ``# HELP``, negative counter
    or bucket values, non-cumulative histogram buckets, or a histogram
    whose ``_count`` disagrees with its ``+Inf`` bucket.
    """
    families: Dict[str, Dict[str, Any]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            fam = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            fam["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ", 1)
            if len(parts) != 2 or parts[1] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line {raw!r}")
            name = parts[0]
            fam = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if fam["type"] is not None:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
            fam["type"] = parts[1]
            current = name
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {raw!r}")
        sample_name = match.group("name")
        fam_name = sample_name
        if current is not None and sample_name.startswith(current):
            suffix = sample_name[len(current):]
            if suffix in ("", "_bucket", "_sum", "_count", "_total"):
                fam_name = current
        fam = families.get(fam_name)
        if fam is None or fam["type"] is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no # TYPE family"
            )
        labels: List[Tuple[str, str]] = []
        label_text = match.group("labels")
        if label_text:
            pos = 0
            while pos < len(label_text):
                pair_match = _LABEL_PAIR.match(label_text, pos)
                if pair_match is None:
                    raise ValueError(
                        f"line {lineno}: malformed label {label_text[pos:]!r}"
                    )
                labels.append((
                    pair_match.group("key"),
                    _unescape_label(pair_match.group("value")),
                ))
                pos = pair_match.end()
        value = _parse_value(match.group("value"), lineno)
        if fam["type"] == "counter" and value < 0:
            raise ValueError(f"line {lineno}: negative counter {sample_name!r}")
        fam["samples"].append((sample_name, tuple(sorted(labels)), value))

    for name, fam in families.items():
        if fam["type"] is None:
            raise ValueError(f"family {name!r} has HELP but no TYPE")
        if fam["help"] is None:
            raise ValueError(f"family {name!r} has no HELP line")
        if fam["type"] == "histogram":
            _validate_histogram(name, fam["samples"])
    return families


def _validate_histogram(
    name: str, samples: List[Tuple[str, Tuple[Tuple[str, str], ...], float]]
) -> None:
    buckets: List[Tuple[float, float]] = []
    count: Optional[float] = None
    for sample_name, labels, value in samples:
        if sample_name == name + "_bucket":
            le = dict(labels).get("le")
            if le is None:
                raise ValueError(f"histogram {name!r}: bucket without le label")
            buckets.append((math.inf if le == "+Inf" else float(le), value))
            if value < 0:
                raise ValueError(f"histogram {name!r}: negative bucket count")
        elif sample_name == name + "_count":
            count = value
    buckets.sort()
    previous = 0.0
    for bound, value in buckets:
        if value < previous:
            raise ValueError(
                f"histogram {name!r}: bucket le={bound} not cumulative"
            )
        previous = value
    if buckets and buckets[-1][0] != math.inf:
        raise ValueError(f"histogram {name!r}: missing +Inf bucket")
    if buckets and count is not None and buckets[-1][1] != count:
        raise ValueError(
            f"histogram {name!r}: _count {count} != +Inf bucket {buckets[-1][1]}"
        )


def sample_map(
    families: Dict[str, Dict[str, Any]]
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Flatten parsed families to ``{(sample_name, labels): value}``.

    Convenient for monotonicity assertions between two scrapes (the CI
    metrics-smoke job compares counter samples this way).
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for fam in families.values():
        for sample_name, labels, value in fam["samples"]:
            out[(sample_name, labels)] = value
    return out
