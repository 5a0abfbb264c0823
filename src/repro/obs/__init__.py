"""Observability: derived views over the instrumentation layer.

:mod:`repro.instrumentation` captures a flat firehose — counters,
histograms, and a cycle-stamped :class:`~repro.instrumentation.TraceEvent`
stream.  This package turns that firehose into the per-request and
per-window views the paper's evaluation is actually about:

* :mod:`repro.obs.spans` — join trace events by tag into per-request
  :class:`~repro.obs.spans.Span` objects (issue → per-stage hops →
  combine/decombine tree → MM service → reply), yielding exact
  per-stage queueing delays and end-to-end transit-latency percentiles;
* :mod:`repro.obs.perfetto` — export a trace as Chrome trace-event JSON
  loadable in ``ui.perfetto.dev``, one track per PE / switch stage / MM,
  with combine→decombine edges as flow events;
* :mod:`repro.obs.timeline` — windowed time series (queue occupancy,
  wait-buffer depth, combining rate, MM utilization) sampled from
  component counters with zero hot-path cost;
* :mod:`repro.obs.drift` — compare a simulated run against the
  closed-form queueing model of :mod:`repro.analysis.queueing`
  (the paper's NETSIM-vs-analytic validation, automated);
* :mod:`repro.obs.events` — the *fleet* event log: cross-process
  structured tracing for the distributed execution plane (driver,
  shard workers, pool workers), with a flight recorder for crash
  postmortems;
* :mod:`repro.obs.prometheus` — text-format exposition of the metrics
  registry, serving ``GET /metrics`` on the serve tier.

Everything here is post-processing: nothing in this package runs inside
the simulator's cycle loop, so enabling it costs the hot path nothing
beyond the existing ``_instr_on`` probe guards.
"""

from .drift import DriftReport, StageDrift, measure_drift
from .events import (
    EventLog,
    FleetEvent,
    flight_dump,
    iter_batch_events,
    new_span_id,
    new_trace_id,
    read_dump,
    read_events,
    validate_event,
)
from .perfetto import (
    chrome_trace,
    fleet_chrome_trace,
    write_chrome_trace,
)
from .prometheus import render_prometheus
from .spans import (
    IncompleteTraceError,
    LatencySummary,
    Span,
    SpanSet,
    reconstruct_spans,
)
from .timeline import Timeline, TimelineSample, collect_timeline

__all__ = [
    "DriftReport",
    "EventLog",
    "FleetEvent",
    "IncompleteTraceError",
    "LatencySummary",
    "Span",
    "SpanSet",
    "StageDrift",
    "Timeline",
    "TimelineSample",
    "chrome_trace",
    "collect_timeline",
    "fleet_chrome_trace",
    "flight_dump",
    "iter_batch_events",
    "measure_drift",
    "new_span_id",
    "new_trace_id",
    "read_dump",
    "read_events",
    "reconstruct_spans",
    "render_prometheus",
    "validate_event",
    "write_chrome_trace",
]
