"""Per-request spans reconstructed from the flat cycle trace.

A request's life is scattered across the trace as ``issue`` /
``enqueue`` / ``combine`` / ``mm_serve`` / ``decombine`` / ``reply``
events sharing one tag.  :func:`reconstruct_spans` joins them back into
one :class:`Span` per request, from which exact per-stage queueing
delays and end-to-end transit latencies fall out:

* a request enqueued at stage ``s`` on cycle ``c`` and at stage ``s+1``
  on cycle ``c'`` spent ``c' - c`` cycles at stage ``s`` (the switch
  delay: 1 service cycle + queueing wait), because the forward pipeline
  moves a message at most one stage per cycle;
* a request absorbed by combining carries the absorption point
  (``combined_stage`` / ``combined_into``) and, symmetrically, the
  ``decombine`` point where its reply was regenerated on the way back;
* transit latency is ``reply_cycle - issued_cycle`` — identical to the
  PNI's :attr:`~repro.network.interfaces.ReplyRecord.round_trip`, which
  is what makes the differential test between the two possible.

Reconstruction requires a *complete* trace: the ring buffer must not
have dropped events (:class:`IncompleteTraceError` otherwise — a
truncated trace has lost the heads of its oldest requests, so joins
would silently produce wrong latencies).  The Chrome export
(:mod:`repro.obs.perfetto`) draws from the same join run tolerantly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..instrumentation import TraceEvent

#: Quantiles exported by :meth:`LatencySummary.to_dict`.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99, 1.0)


class IncompleteTraceError(RuntimeError):
    """The trace cannot be joined into complete spans.

    Raised when the ring buffer dropped events (increase
    ``trace_capacity``) or when the trace references a request whose
    ``issue`` event was never captured (the capture started mid-run).
    """


# ----------------------------------------------------------------------
# span model
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hop:
    """One forward-path residency: the request entered ``stage``'s ToMM
    queue on ``cycle``."""

    stage: int
    cycle: int


@dataclass(slots=True)
class Span:
    """The reconstructed life of one memory request.

    ``hops`` are the stages the request physically traversed (a request
    absorbed by combining stops at ``combined_stage``; a surviving one
    reaches the memory side and has ``mm_serve_cycle``).  ``absorbed``
    lists the tags this request carried for (the combine tree, one level
    deep — each absorbed tag has its own span with the full subtree).
    ``issued_cycle`` is None only in the Chrome export of a truncated
    trace, for a request whose ``issue`` event the ring dropped.
    """

    tag: int
    pe: int
    mm: Optional[int]
    issued_cycle: Optional[int]
    hops: tuple[Hop, ...] = ()
    combined_stage: Optional[int] = None
    combined_cycle: Optional[int] = None
    combined_into: Optional[int] = None
    absorbed: tuple[int, ...] = ()
    mm_serve_cycle: Optional[int] = None
    decombine_stage: Optional[int] = None
    decombine_cycle: Optional[int] = None
    reply_cycle: Optional[int] = None
    reply_value: Optional[int] = None

    @property
    def complete(self) -> bool:
        """True when the reply made it back to the PE within the trace."""
        return self.reply_cycle is not None

    @property
    def combined(self) -> bool:
        return self.combined_stage is not None

    @property
    def transit_latency(self) -> Optional[int]:
        """End-to-end cycles from issue to reply delivery (None while
        the request is still in flight at the end of the trace)."""
        if self.reply_cycle is None or self.issued_cycle is None:
            return None
        return self.reply_cycle - self.issued_cycle

    @property
    def injection_wait(self) -> Optional[int]:
        """Cycles the request waited in the PNI before entering stage 0
        (link serialization + refused injections); 0 is the minimum."""
        if not self.hops or self.issued_cycle is None:
            return None
        return self.hops[0].cycle - self.issued_cycle - 1

    def stage_delays(self) -> list[tuple[int, int]]:
        """``(stage, delay)`` per forward hop whose departure the trace
        pins down: delay at stage ``s`` is the cycle gap to the next
        stage's enqueue (or to the absorption point, for a request that
        combined there).  The last stage before memory has no such
        successor event, so its delay is not reported here.
        """
        points: list[tuple[int, int]] = [(h.stage, h.cycle) for h in self.hops]
        if self.combined_stage is not None and self.combined_cycle is not None:
            points.append((self.combined_stage, self.combined_cycle))
        return [
            (points[i][0], points[i + 1][1] - points[i][1])
            for i in range(len(points) - 1)
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "tag": self.tag,
            "pe": self.pe,
            "mm": self.mm,
            "issued_cycle": self.issued_cycle,
            "hops": [{"stage": h.stage, "cycle": h.cycle} for h in self.hops],
            "combined_stage": self.combined_stage,
            "combined_cycle": self.combined_cycle,
            "combined_into": self.combined_into,
            "absorbed": list(self.absorbed),
            "mm_serve_cycle": self.mm_serve_cycle,
            "decombine_stage": self.decombine_stage,
            "decombine_cycle": self.decombine_cycle,
            "reply_cycle": self.reply_cycle,
            "transit_latency": self.transit_latency,
        }


# ----------------------------------------------------------------------
# latency summary (exact order statistics, not histogram buckets)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LatencySummary:
    """Exact percentiles over a set of observed latencies.

    Computed from the raw per-request values (nearest-rank order
    statistics), so unlike :meth:`HistogramData.quantile
    <repro.instrumentation.HistogramData.quantile>` nothing is
    interpolated: ``quantile(1.0)`` *is* the maximum observed value.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: int
    _sorted: tuple[int, ...] = field(default=(), repr=False, compare=False)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "LatencySummary":
        ordered = tuple(sorted(values))
        if not ordered:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0)
        n = len(ordered)
        return cls(
            count=n,
            mean=sum(ordered) / n,
            p50=float(_rank(ordered, 0.5)),
            p95=float(_rank(ordered, 0.95)),
            p99=float(_rank(ordered, 0.99)),
            max=ordered[-1],
            _sorted=ordered,
        )

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the raw values; ``quantile(1.0)``
        equals :attr:`max` exactly."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._sorted:
            return 0.0
        return float(_rank(self._sorted, q))

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


def _rank(ordered: Sequence[int], q: float) -> int:
    """Nearest-rank order statistic: smallest value with at least a
    ``q`` fraction of the sample at or below it."""
    if q <= 0.0:
        return ordered[0]
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# the span set
# ----------------------------------------------------------------------


class SpanSet:
    """All spans of one run, keyed by tag, with aggregate views."""

    def __init__(self, spans: dict[int, Span]) -> None:
        self._spans = spans
        self._latency: Optional[LatencySummary] = None

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans.values())

    def __getitem__(self, tag: int) -> Span:
        return self._spans[tag]

    def __contains__(self, tag: int) -> bool:
        return tag in self._spans

    def completed(self) -> list[Span]:
        """Spans whose reply reached the PE within the trace."""
        return [span for span in self._spans.values() if span.complete]

    @property
    def latency(self) -> LatencySummary:
        """Transit-latency summary over the completed spans (cached)."""
        if self._latency is None:
            self._latency = LatencySummary.from_values(
                span.reply_cycle - span.issued_cycle
                for span in self._spans.values()
                if span.reply_cycle is not None
            )
        return self._latency

    def stage_delays(self) -> dict[int, list[int]]:
        """Observed switch delays per stage, pooled over every span."""
        out: dict[int, list[int]] = {}
        for span in self._spans.values():
            for stage, delay in span.stage_delays():
                out.setdefault(stage, []).append(delay)
        return out

    def mean_stage_delay(self) -> dict[int, float]:
        return {
            stage: sum(delays) / len(delays)
            for stage, delays in sorted(self.stage_delays().items())
            if delays
        }

    def combine_pairs(self) -> list[tuple[int, int]]:
        """``(absorbed_tag, survivor_tag)`` for every in-network combine."""
        return [
            (span.tag, span.combined_into)
            for span in self._spans.values()
            if span.combined_into is not None
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": len(self._spans),
            "completed": len(self.completed()),
            "combined": sum(1 for s in self._spans.values() if s.combined),
            "latency": self.latency.to_dict(),
            "mean_stage_delay": {
                str(stage): delay
                for stage, delay in self.mean_stage_delay().items()
            },
        }


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------


def reconstruct_spans(
    events: Sequence[TraceEvent], *, dropped: int = 0
) -> SpanSet:
    """Join a chronological trace into one :class:`Span` per request.

    ``dropped`` is :attr:`CycleTrace.dropped
    <repro.instrumentation.CycleTrace.dropped>` for the trace the events
    came from; a non-zero value raises :class:`IncompleteTraceError`
    because the ring buffer has discarded the oldest events and the
    surviving suffix would join into silently wrong spans.
    """
    if dropped:
        raise IncompleteTraceError(
            f"trace ring buffer dropped {dropped} event(s); spans cannot "
            "be reconstructed from a truncated trace — rerun with a "
            "larger trace_capacity"
        )
    return SpanSet(_join(events, strict=True))


def _join(events: Iterable[TraceEvent], *, strict: bool) -> dict[int, Span]:
    """Join trace events by tag, one :class:`Span` per request in the
    order the requests first appear.

    ``strict`` raises :class:`IncompleteTraceError` on an event whose
    request has no captured ``issue``.  Otherwise (the Chrome export of
    a ring that wrapped) such a request gets a span with
    ``issued_cycle`` None holding the events that survived.
    """
    spans: dict[int, Span] = {}
    for event in events:
        kind = event.kind
        span = spans.get(event.tag)
        if span is None:
            if strict and kind != "issue":
                raise IncompleteTraceError(
                    f"{kind} event at cycle {event.cycle} references tag "
                    f"{event.tag} with no captured issue event; the trace "
                    "does not cover the start of the run"
                )
            span = spans[event.tag] = Span(
                tag=event.tag,
                pe=event.pe if event.pe is not None else -1,
                mm=None,
                issued_cycle=None,
            )
        elif kind == "issue":
            if strict:
                raise IncompleteTraceError(
                    f"duplicate issue event for tag {event.tag}; trace is "
                    "inconsistent"
                )
            continue
        if kind == "issue":
            span.mm = event.mm
            span.issued_cycle = event.cycle
        elif kind == "enqueue":
            span.hops = span.hops + (Hop(stage=event.stage, cycle=event.cycle),)
        elif kind == "combine":
            span.combined_stage = event.stage
            span.combined_cycle = event.cycle
            span.combined_into = event.tag2
            survivor = spans.get(event.tag2) if event.tag2 is not None else None
            if survivor is not None:
                survivor.absorbed = survivor.absorbed + (event.tag,)
            elif strict:
                raise IncompleteTraceError(
                    f"combine event at cycle {event.cycle} references "
                    f"survivor tag {event.tag2} with no captured issue event"
                )
        elif kind == "mm_serve":
            span.mm_serve_cycle = event.cycle
            if span.mm is None:
                span.mm = event.mm
        elif kind == "decombine":
            # tag2 is the survivor whose reply regenerated this one: the
            # combine's partner, kept when the ring dropped the combine.
            span.decombine_stage = event.stage
            span.decombine_cycle = event.cycle
            span.combined_into = event.tag2
        elif kind == "reply":
            span.reply_cycle = event.cycle
            span.reply_value = event.value
        # Unknown kinds are ignored: forward compatibility with richer
        # probe sets, same stance the CLI trace printer takes.
    return spans
