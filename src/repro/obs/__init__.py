"""Observability: tracing, structured logs, and continuous telemetry.

``repro.obs`` is the per-request complement to the aggregate
``repro.serve.metrics`` registry: span trees attribute one request's
latency to batching wait vs. encoder forward vs. similarity kernel vs.
filtering, a bounded :class:`TraceStore` retains recent traces plus slow
exemplars, and :mod:`repro.obs.log` emits JSON records stamped with the
active trace/span ids.  Everything is off by default (:class:`NullTracer`)
and zero-cost when off.

On top of that sit the time-aware layers: :mod:`repro.obs.timeseries`
(a background :class:`MetricsCollector` turning the registry into rates
and windowed percentiles), :mod:`repro.obs.profile` (merging a window of
traces into one weighted flamegraph) and :mod:`repro.obs.slo` (error
budgets, burn rates and the ok→warn→page alert state machine).
"""

from repro.obs.log import StructuredLogger, get_logger, set_default_stream
from repro.obs.profile import (
    diff_profiles,
    merge_traces,
    profile_from_store,
    render_profile,
    render_profile_diff,
)
from repro.obs.render import (
    build_span_tree,
    collapsed_stack_values,
    render_trace,
    to_collapsed_stacks,
)
from repro.obs.slo import SLOMonitor, SLOSpec, default_slos
from repro.obs.store import TraceStore, trace_summary
from repro.obs.timeseries import MetricsCollector, TimeSeriesStore
from repro.obs.tracing import (
    ActiveSpan,
    NullTracer,
    Tracer,
    annotate,
    current_group,
    current_span,
    scope,
    span,
)

__all__ = [
    "ActiveSpan",
    "MetricsCollector",
    "NullTracer",
    "SLOMonitor",
    "SLOSpec",
    "StructuredLogger",
    "TimeSeriesStore",
    "TraceStore",
    "Tracer",
    "annotate",
    "build_span_tree",
    "collapsed_stack_values",
    "current_group",
    "current_span",
    "default_slos",
    "diff_profiles",
    "get_logger",
    "merge_traces",
    "profile_from_store",
    "render_profile",
    "render_profile_diff",
    "render_trace",
    "scope",
    "set_default_stream",
    "span",
    "to_collapsed_stacks",
    "trace_summary",
]
