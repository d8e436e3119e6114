"""Prometheus text exposition (format 0.0.4): the renderer.

Stdlib-only on purpose — the service exposes ``GET /metrics.prom``
without a client library. The renderer maps a
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` onto exposition
families in canonical order:

* counters  -> ``<prefix><name>_total`` (``TYPE counter``)
* gauges    -> ``<prefix><name>``       (``TYPE gauge``)
* histograms-> ``<prefix><name>`` with cumulative ``_bucket{le=...}``
  lines, ``_sum`` and ``_count`` (``TYPE histogram``)

Dotted registry names are sanitized (``net.wired.bytes`` ->
``net_wired_bytes``); a collision between two source names raises rather
than silently merging families. Families are sorted by exposition name
and labels by key, so two renders of equal inputs are byte-identical.
"""
from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["CONTENT_TYPE", "render_prometheus"]

#: HTTP Content-Type of the exposition format this module speaks
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str, prefix: str) -> str:
    out = prefix + _SANITIZE.sub("_", name)
    if not _NAME_OK.match(out):
        raise ValueError(f"cannot express metric name {name!r} in exposition format")
    return out


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    pairs = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + pairs + "}"


def render_prometheus(
    snapshot: Dict[str, Any],
    prefix: str = "repro_",
    extra_gauges: Iterable[Tuple[str, Dict[str, str], float]] = (),
) -> str:
    """Render a registry snapshot (plus ad-hoc labelled gauges) to text.

    ``extra_gauges`` is an iterable of ``(name, labels, value)`` triples
    — the service uses it for per-job gauges. Samples sharing a name
    form one family; output is sorted by family name, then by labels.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str, source: str, ftype: str, help_text: str) -> Dict[str, Any]:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = {
                "source": source,
                "type": ftype,
                "help": help_text,
                "lines": [],
            }
        elif fam["source"] != source or fam["type"] != ftype:
            raise ValueError(
                f"metric name collision: {source!r} and {fam['source']!r} "
                f"both render as {name!r}"
            )
        return fam

    for name, value in snapshot.get("counters", {}).items():
        out = _sanitize(name, prefix) + "_total"
        fam = family(out, name, "counter", f"registry counter {name}")
        fam["lines"].append((out, "", float(value)))

    for name, value in snapshot.get("gauges", {}).items():
        out = _sanitize(name, prefix)
        fam = family(out, name, "gauge", f"registry gauge {name}")
        fam["lines"].append((out, "", float(value)))

    for name, hist in snapshot.get("histograms", {}).items():
        out = _sanitize(name, prefix)
        fam = family(out, name, "histogram", f"registry histogram {name}")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["bucket_counts"]):
            cumulative += count
            fam["lines"].append(
                (out + "_bucket", _format_labels({"le": _format_value(bound)}),
                 float(cumulative))
            )
        fam["lines"].append(
            (out + "_bucket", '{le="+Inf"}', float(hist["count"]))
        )
        fam["lines"].append((out + "_sum", "", float(hist["total"])))
        fam["lines"].append((out + "_count", "", float(hist["count"])))

    for name, labels, value in extra_gauges:
        out = _sanitize(name, prefix)
        fam = family(out, name, "gauge", f"service gauge {name}")
        fam["lines"].append((out, _format_labels(labels), float(value)))

    chunks: List[str] = []
    for name in sorted(families):
        fam = families[name]
        chunks.append(f"# HELP {name} {fam['help']}")
        chunks.append(f"# TYPE {name} {fam['type']}")
        lines = fam["lines"]
        if fam["type"] != "histogram":
            # histogram sample order is structural (buckets ascending);
            # scalar families sort by labels for canonical output
            lines = sorted(lines)
        for sample_name, labels, value in lines:
            chunks.append(f"{sample_name}{labels} {_format_value(value)}")
    return "\n".join(chunks) + "\n" if chunks else ""
