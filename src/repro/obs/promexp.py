"""Prometheus/OpenMetrics text exposition for registries and histograms.

Renders the flat counter address space of a
:class:`~repro.obs.registry.MetricsRegistry` snapshot — plus any
:class:`~repro.obs.histogram.LatencyHistogram` families — as the
OpenMetrics text format a Prometheus scraper (or
``tools/check_metrics.py``) consumes::

    # TYPE repro_serve_admitted counter
    repro_serve_admitted_total 32
    # TYPE repro_serve_latency_seconds histogram
    repro_serve_latency_seconds_bucket{bin="gemm:64x96x32",le="0.001"} 3
    ...
    # EOF

Naming scheme (documented in ``docs/observability.md``): the dotted
registry name is sanitized to ``[a-zA-Z0-9_:]`` with dots becoming
underscores, prefixed ``repro_``.  Monotonic counters — recognized by
their leaf name (``bytes``, ``hits``, ``count``, ...) — are exposed as
``counter`` families with the mandated ``_total`` sample suffix;
everything else is a ``gauge``.  Values render via ``repr`` so floats
round-trip bit-exactly: the serve smoke test parses its own scrape and
reconciles ``serve.request`` traffic totals against
``Session.stats().traffic`` with equality, not tolerance.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.obs.histogram import LatencyHistogram

__all__ = [
    "HistogramFamily",
    "format_value",
    "is_counter_name",
    "metric_name",
    "render_openmetrics",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: leaf components (after the last dot) treated as monotonic counters.
COUNTER_LEAVES = frozenset(
    {
        "admitted",
        "allocations",
        "batched_requests",
        "batches",
        "builds",
        "bytes",
        "bytes_get",
        "bytes_moved",
        "bytes_put",
        "cache_hits",
        "calls",
        "col_broadcasts",
        "col_items",
        "completed",
        "count",
        "dma_bytes",
        "dma_transactions",
        "errors",
        "evictions",
        "failed",
        "failures",
        "flops",
        "frees",
        "gets",
        "hits",
        "in_place_stores",
        "items",
        "messages",
        "misses",
        "p2p_items",
        "p2p_sends",
        "padded_flops",
        "plan_hits",
        "puts",
        "receives",
        "regcomm_bytes",
        "rejected",
        "row_broadcasts",
        "row_items",
        "samples",
        "seconds",
        "staged",
        "stores",
        "transactions",
        "writebacks",
    }
)

#: leaf names that end like counters but are point-in-time gauges.
_GAUGE_LEAVES = frozenset({"bytes_peak", "peak_bytes", "used_bytes"})


def metric_name(raw: str, prefix: str = "repro") -> str:
    """Sanitize a dotted registry name into a Prometheus metric name."""
    name = _NAME_OK.sub("_", str(raw).replace(".", "_"))
    if prefix:
        name = f"{prefix}_{name}"
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        name = f"_{name}"
    return name


def is_counter_name(raw: str) -> bool:
    """True when the dotted name's leaf marks a monotonic counter."""
    leaf = str(raw).rsplit(".", 1)[-1].lower()
    if leaf in _GAUGE_LEAVES:
        return False
    return leaf in COUNTER_LEAVES or leaf.endswith("_total")


def format_value(value: float) -> str:
    """Round-trippable sample value: ints plain, floats via ``repr``."""
    if isinstance(value, bool):  # pragma: no cover - snapshots drop bools
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


@dataclass(frozen=True)
class HistogramFamily:
    """One named histogram metric with labelled sub-series.

    ``series`` maps a label value (e.g. a shape-bin string) to its
    histogram; every histogram in a family must share one bucket scale
    so the family is mergeable and renders one consistent ``le`` grid.
    An empty ``label`` renders a single unlabelled series.
    """

    name: str
    label: str
    series: tuple[tuple[str, LatencyHistogram], ...]

    def render(self, prefix: str = "repro") -> list[str]:
        base = metric_name(self.name, prefix)
        lines = [f"# TYPE {base} histogram"]
        for label_value, hist in self.series:
            labels = (
                f'{self.label}="{_escape_label(label_value)}",'
                if self.label
                else ""
            )
            for bound, cum in zip(hist.bucket_bounds(), hist.cumulative()):
                le = "+Inf" if math.isinf(bound) else repr(bound)
                lines.append(
                    f'{base}_bucket{{{labels}le="{le}"}} {cum}'
                )
            tail = f"{{{labels[:-1]}}}" if labels else ""
            lines.append(f"{base}_sum{tail} {format_value(hist.sum)}")
            lines.append(f"{base}_count{tail} {hist.count}")
        return lines


def render_openmetrics(
    snapshot: Mapping[str, float],
    families: Iterable[HistogramFamily] = (),
    *,
    prefix: str = "repro",
) -> str:
    """The OpenMetrics text exposition of a snapshot plus histograms.

    Counter values below zero (a source reset mid-scrape) are clamped
    to 0 rather than emitting an invalid negative counter.  Ends with
    the ``# EOF`` terminator the format requires.
    """
    lines: list[str] = []
    seen: set[str] = set()
    for raw in sorted(snapshot):
        value = snapshot[raw]
        name = metric_name(raw, prefix)
        if name in seen:  # two dotted names sanitizing identically
            continue
        seen.add(name)
        if is_counter_name(raw):
            lines.append(f"# TYPE {name} counter")
            clamped = value if value >= 0 else 0
            lines.append(f"{name}_total {format_value(clamped)}")
        else:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {format_value(value)}")
    for family in families:
        lines.extend(family.render(prefix))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
