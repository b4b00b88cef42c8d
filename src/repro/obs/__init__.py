"""repro.obs — tracing, metrics, and exporters for the federation.

The observability substrate the rest of the reproduction instruments
against.  Three pieces:

- :mod:`repro.obs.trace` — hierarchical spans with per-query trace
  ids, recording wall-clock *and* ``VirtualClock`` time, with a
  context-local current span that propagates across ``WorkerPool``
  threads (``capture_context`` / ``use_context``).
- :mod:`repro.obs.metrics` — a process-wide registry of counters /
  gauges / histograms that the existing cost structs publish into via
  :func:`count` without changing their own APIs.
- :mod:`repro.obs.export` — JSONL trace sink, Prometheus-style text
  dump, and the span-tree renderer behind ``python -m repro trace``.

Everything is off by default and near-free while off: :func:`span` and
:func:`count` each cost one module-global read when disabled (measured
by experiment A10, ``benchmarks/bench_ablation_obs.py``).
"""

from repro.obs.export import (
    InMemorySink,
    JsonlTraceSink,
    layer_breakdown,
    render_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    disable_metrics,
    enable_metrics,
    gauge,
    get_registry,
    observe,
    set_registry,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    annotate,
    capture_context,
    current_trace_id,
    disable,
    enable,
    get_tracer,
    set_tracer,
    span,
    use_context,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "annotate",
    "capture_context",
    "count",
    "current_trace_id",
    "disable",
    "disable_metrics",
    "enable",
    "enable_metrics",
    "gauge",
    "get_registry",
    "get_tracer",
    "layer_breakdown",
    "observe",
    "render_trace",
    "set_registry",
    "set_tracer",
    "span",
    "use_context",
]
