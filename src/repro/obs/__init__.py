"""Unified observability layer: counters, spans and time-series.

The engines, the fault/retry path and the discrete-event simulator all
report through this package so that *real* and *simulated* executions
produce diffable artifacts:

- :class:`CounterRegistry` — hierarchical, thread-safe job counters
  (records mapped/combined/shuffled/reduced, bytes spilled, task
  attempts/retries, partial-store builds/resets);
- :class:`Tracer` / :class:`Span` — nestable spans (job → stage → task →
  attempt → op), the one timeline format of engines and simulator, and
  :func:`stage_times`, every engine's ``StageTimes`` read off them;
- :class:`MetricsRegistry` / :class:`TimeSeries` — sampled gauges
  (buffer depth, store bytes, in-flight fetches, records/sec) on a
  wall-clock ticker for live engines and virtual-time hooks for the
  simulator;
- :mod:`repro.obs.export` — a Chrome ``trace_event`` JSON exporter
  (open the file in ``chrome://tracing`` or Perfetto) plus a plain-text
  summary;
- :class:`JobObservability` — the bundle engines accept, with a fully
  disabled no-op mode for overhead-sensitive runs.
"""

from repro.obs.counters import CounterRegistry
from repro.obs.export import (
    render_counters,
    render_trace_summary,
    to_chrome_trace,
    to_chrome_trace_multi,
    validate_span_nesting,
    write_chrome_trace,
)
from repro.obs.metrics import (
    LiveGauge,
    MetricsRegistry,
    MetricsTicker,
    TimeSeries,
    ensure_parent,
    load_metrics,
    write_metrics,
)
from repro.obs.session import JobObservability
from repro.obs.trace import KIND_DEPTH, Span, Tracer, stage_times

__all__ = [
    "CounterRegistry",
    "JobObservability",
    "KIND_DEPTH",
    "LiveGauge",
    "MetricsRegistry",
    "MetricsTicker",
    "Span",
    "TimeSeries",
    "Tracer",
    "ensure_parent",
    "load_metrics",
    "render_counters",
    "render_trace_summary",
    "stage_times",
    "to_chrome_trace",
    "to_chrome_trace_multi",
    "validate_span_nesting",
    "write_chrome_trace",
    "write_metrics",
]
