"""Observability: tracing, metrics, sampling and exposition.

The runtime's counters (seven ``*Stats`` dataclasses sharing the
:class:`~repro.utils.stats.StatsProtocol`) report end states; this
subsystem adds *attribution* — which phase of which call moved those
bytes, and when — so a request's time and traffic can be traced to
the layer that spent it:

- :mod:`repro.obs.tracer` — nestable wall-clock spans with attached
  counter deltas (:class:`SpanTracer`; :data:`NULL_TRACER` is the
  default no-op every ``tracer=`` keyword resolves to);
- :mod:`repro.obs.registry` — one namespaced snapshot/delta view over
  the scattered stats objects (``dma.pe_mode.bytes``,
  ``regcomm.row_broadcasts``, ...) plus the span-meter helpers;
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto), JSONL,
  and per-phase text reports including model-vs-measured diffs;
- :mod:`repro.obs.series` — :class:`MetricsSampler`, a background
  thread a caller attaches to a registry, turning its snapshots into
  ring-buffer :class:`TimeSeries` whose window deltas telescope;
- :mod:`repro.obs.histogram` — :class:`LatencyHistogram`, bounded
  log-bucketed distributions (latency, Gflop/s, DMA bytes);
- :mod:`repro.obs.promexp` — Prometheus/OpenMetrics text exposition
  of snapshots and histogram families.

Spans are emitted by ``Session``/``dgemm``, both execution engines and
``CGScheduler`` whenever a real tracer is passed;
``tools/check_trace.py`` validates exported traces and
``tools/check_metrics.py`` validates OpenMetrics scrapes in CI.
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_lines,
    model_gap_report,
    phase_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.histogram import LatencyHistogram
from repro.obs.promexp import (
    HistogramFamily,
    format_value,
    is_counter_name,
    metric_name,
    render_openmetrics,
)
from repro.obs.registry import (
    MetricsRegistry,
    cg_meter,
    context_meter,
    flatten,
    processor_meter,
    session_meter,
    snapshot_core_group,
)
from repro.obs.series import MetricsSampler, TimeSeries
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanTracer,
    TraceSpan,
    ensure_tracer,
)

__all__ = [
    "NULL_TRACER",
    "HistogramFamily",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSampler",
    "NullTracer",
    "SpanTracer",
    "TimeSeries",
    "TraceSpan",
    "cg_meter",
    "chrome_trace",
    "context_meter",
    "ensure_tracer",
    "flatten",
    "format_value",
    "is_counter_name",
    "jsonl_lines",
    "metric_name",
    "model_gap_report",
    "phase_report",
    "processor_meter",
    "render_openmetrics",
    "session_meter",
    "snapshot_core_group",
    "write_chrome_trace",
    "write_jsonl",
]
