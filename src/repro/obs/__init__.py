"""Pipeline-wide observability: spans, metrics, NDJSON traces.

The deployment pipeline (parallelize -> synthesize -> expand ->
partition -> simulate) is instrumented with one :class:`Trace` per
execution.  Enable it either explicitly::

    from repro.obs import Trace
    trace = Trace("deploy")
    result = compass.run(sfc, spec, trace=trace)
    trace.write_ndjson("out.ndjson")

or ambiently, without touching call signatures::

    from repro.obs import Trace, use_trace
    with use_trace(Trace("sweep")) as trace:
        harness.main()

With no trace supplied, every instrumentation point resolves to the
shared :data:`NULL_TRACE` whose spans and metrics are no-ops.

``repro deploy ... --trace out.ndjson`` records a deployment;
``repro trace out.ndjson`` prints the per-stage wall/self-time table
(see :func:`format_trace_summary`).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.report import StageSummary, format_trace_summary, \
    stage_summary
from repro.obs.trace import (
    NULL_TRACE,
    WALL_CLOCK,
    NullTrace,
    Span,
    Trace,
    current_trace,
    resolve_trace,
    use_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "StageSummary",
    "format_trace_summary",
    "stage_summary",
    "NULL_TRACE",
    "WALL_CLOCK",
    "NullTrace",
    "Span",
    "Trace",
    "current_trace",
    "resolve_trace",
    "use_trace",
]
