"""Machine-wide instrumentation: metrics registry and cycle tracing.

The paper's entire evaluation (Tables 1-3, Figure 7) is built from
counters the hardware never exposed — combining rates, queue
occupancies, transit times.  This module is the one place those numbers
are defined: a small metrics registry (counters, gauges,
fixed-bucket latency histograms, which also take numpy arrays of
observations in bulk) plus an optional cycle-level event
trace, both owned by an :class:`Instrumentation` facade that every
simulated component receives.

Design rules, enforced throughout the simulator:

* **Off by default.**  Components default to the shared :data:`DISABLED`
  instance; nothing is recorded and no instrument objects are created.
* **One guard per probe.**  Every probe site is gated behind a single
  ``if instr.enabled:`` attribute check so the disabled-mode wall-clock
  cost stays under 5% (``benchmarks/bench_overhead_instrumentation.py``
  guards this).  Components cache their instrument handles at
  construction time, so the enabled path is one attribute load plus an
  integer add.
* **Aggregation by identity.**  Instruments are keyed by
  ``(name, labels)``; the machine hands the *same* registry to every
  network copy, switch, and interface, so per-stage counters aggregate
  across copies automatically.

Metric names used by the machine (stable surface, see
:mod:`repro.core.results`):

====================================  =========  ==========================
name                                  kind       labels
====================================  =========  ==========================
``machine.requests_issued``           counter    —
``machine.round_trip_cycles``         histogram  —
``network.combines``                  counter    ``stage``
``network.decombines``                counter    ``stage``
``network.queue_occupancy_packets``   histogram  ``stage``, ``direction``
``network.wait_residency_cycles``     histogram  ``stage``
``network.wait_occupancy``            histogram  ``stage``
``mni.inbound_occupancy_packets``     histogram  ``module``
``memory.accesses``                   counter    ``module``
``memory.queue_length``               histogram  ``module``
``cache.hits`` / ``cache.misses``     counter    ``pe``
``cache.write_backs``                 counter    ``pe``
====================================  =========  ==========================

Trace event kinds: ``issue``, ``enqueue``, ``combine``, ``mm_serve``,
``decombine``, ``reply`` — the life of a memory reference through the
combining network, each stamped with the cycle it happened on.  The
``tag`` field always names the request the event belongs to; combining
events additionally carry ``tag2``, the other request of the pair (the
surviving R-old for a ``combine``, the returning reply for a
``decombine``), which is how :mod:`repro.obs.spans` reconstructs
combine/decombine trees and the Perfetto exporter draws flow edges.
"""

from __future__ import annotations

import gc
import itertools
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

Number = Union[int, float]
LabelItems = tuple[tuple[str, Any], ...]

#: Default bucket upper bounds for latency-style histograms (cycles).
LATENCY_BUCKETS: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Default bucket upper bounds for occupancy-style histograms (packets
#: or entries; the paper's simulated queues hold 15 packets).
OCCUPANCY_BUCKETS: tuple[int, ...] = (0, 1, 2, 4, 8, 15, 30, 60)


def _label_key(labels: dict[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


# ----------------------------------------------------------------------
# live instruments
# ----------------------------------------------------------------------


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a Gauge to decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """A point-in-time numeric metric (may go up or down)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


#: Quantiles reported by :meth:`HistogramData.percentiles` by default —
#: the latency summary every serving stack prints.
DEFAULT_PERCENTILES: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99, 1.0)


def _interpolated_quantile(
    q: float,
    bounds: tuple[Number, ...],
    bucket_counts: Sequence[int],
    count: int,
    max_value: Number,
) -> float:
    """Linear-within-bucket quantile estimate shared by the live
    histogram, its frozen snapshot, and the CLI's serialized form.

    The target rank is located in its bucket, then linearly interpolated
    between the bucket's lower and upper edges (the overflow bucket
    interpolates up to the exact ``max_value``).  Estimates are clamped
    to ``max_value`` so ``quantile(1.0)`` is the true maximum even when
    the whole mass sits below a coarse bucket edge.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if count == 0:
        return 0.0
    target = q * count
    cumulative = 0
    lower: Number = 0
    for index, bucket in enumerate(bucket_counts):
        if bucket:
            upper = bounds[index] if index < len(bounds) else max_value
            if cumulative + bucket >= target:
                fraction = (target - cumulative) / bucket
                estimate = lower + fraction * (upper - lower)
                return float(min(estimate, max_value))
            cumulative += bucket
        if index < len(bounds):
            lower = bounds[index]
    return float(max_value)


#: bucket bounds as arrays, for :meth:`Histogram.observe_many`
_EDGES: dict[tuple, Any] = {}


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are inclusive upper bucket edges in strictly increasing
    order; one implicit overflow bucket catches everything above the
    last edge.  Sum, count, and max are tracked exactly, so the mean is
    exact even though quantiles are bucket-resolution estimates.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_count", "_total",
                 "_max", "_pending")

    def __init__(
        self,
        name: str,
        bounds: tuple[Number, ...] = LATENCY_BUCKETS,
        labels: LabelItems = (),
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram bounds must be strictly increasing, got {bounds!r}"
            )
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._total: Number = 0
        self._max: Number = 0
        self._pending: list[Any] = []  # arrays observe_many took

    def observe(self, value: Number) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value

    def observe_many(self, values: Any) -> None:
        """:meth:`observe` each of the integer ``values`` (a numpy array
        the caller hands over), bit for bit.  The order of observations
        never shows, so the arrays wait and are bucketed together when
        the histogram is read (or many have gathered):
        ``searchsorted(side="left")`` buckets as ``bisect_left`` does,
        and the integer sum and max are exact."""
        self._pending.append(values)
        if len(self._pending) >= 1024:
            self._fold()

    def _fold(self) -> None:
        """Observe the arrays :meth:`observe_many` took."""
        if not self._pending:
            return
        values = np.concatenate(self._pending)
        self._pending = []
        if not values.size:
            return
        edges = _EDGES.get(self.bounds)
        if edges is None:
            edges = _EDGES[self.bounds] = np.array(self.bounds)
        counts = np.bincount(edges.searchsorted(values, side="left"),
                             minlength=len(self._counts))
        self._counts = [a + b for a, b in zip(self._counts, counts.tolist())]
        self._count += values.size
        self._total += int(values.sum())
        top = int(values.max())
        if top > self._max:
            self._max = top

    @property
    def bucket_counts(self) -> list[int]:
        self._fold()
        return self._counts

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> Number:
        self._fold()
        return self._total

    @property
    def max_value(self) -> Number:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate of the live state."""
        return _interpolated_quantile(
            q, self.bounds, self.bucket_counts, self.count, self.max_value
        )

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """``{q: quantile(q)}`` for each requested quantile."""
        return {q: self.quantile(q) for q in qs}

    def data(self) -> "HistogramData":
        """Frozen copy of the current state (what snapshots carry)."""
        self._fold()
        return _frozen(HistogramData, bounds=self.bounds,
                       bucket_counts=tuple(self._counts), count=self._count,
                       total=self._total, max_value=self._max)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Histogram {self.name}{dict(self.labels)} "
            f"count={self.count} mean={self.mean:.1f}>"
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


class MetricTypeError(TypeError):
    """A metric name was reused with a different instrument type."""


class MetricsRegistry:
    """Get-or-create store of instruments keyed by (name, labels)."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelItems], Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._instruments.values())

    def _get_or_create(self, cls: type, name: str, labels: dict[str, Any], **kwargs: Any):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels=key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise MetricTypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[Number, ...] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, bounds=buckets)

    def snapshot(self) -> "MetricsSnapshot":
        samples = []
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                kind, value = "histogram", instrument.data()
            else:
                kind = "counter" if isinstance(instrument, Counter) else "gauge"
                value = instrument.value
            samples.append(_frozen(MetricSample, kind=kind, name=instrument.name,
                                   labels=instrument.labels, value=value))
        return MetricsSnapshot(tuple(samples))


# ----------------------------------------------------------------------
# snapshots (immutable views carried by RunResult)
# ----------------------------------------------------------------------


def _frozen(cls: type, **fields: Any) -> Any:
    """An instance of the frozen dataclass ``cls`` (which has no
    ``__post_init__``) holding ``fields``, all of its fields: they are
    set in one step, not by a frozen ``__setattr__`` per field as its
    constructor does, which is most of a snapshot's cost."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class HistogramData:
    """Frozen copy of a histogram's state at snapshot time."""

    bounds: tuple[Number, ...]
    bucket_counts: tuple[int, ...]
    count: int
    total: Number
    max_value: Number

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate.

        Linear interpolation inside the containing bucket, clamped to
        the exact tracked maximum — so ``quantile(1.0) == max_value``
        regardless of bucket resolution.
        """
        return _interpolated_quantile(
            q, self.bounds, self.bucket_counts, self.count, self.max_value
        )

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """``{q: quantile(q)}`` for each requested quantile."""
        return {q: self.quantile(q) for q in qs}

    def buckets(self) -> list[tuple[Optional[Number], int]]:
        """(upper edge, count) pairs; the overflow bucket's edge is None."""
        edges: list[Optional[Number]] = [*self.bounds, None]
        return list(zip(edges, self.bucket_counts))

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "max": self.max_value,
            "buckets": [
                {"le": edge, "count": n} for edge, n in self.buckets()
            ],
        }


def merge_histograms(items: Sequence[HistogramData]) -> HistogramData:
    """Pool same-bounds histograms into one aggregate distribution.

    Bucket counts, totals, and counts add; the max is the max of
    maxes — so pooled quantiles come from the same bucket-interpolated
    estimator as per-label ones (:func:`_interpolated_quantile`), and a
    "latency over all classes" summary agrees with its per-class parts.
    All inputs must share identical bucket bounds.
    """
    items = [item for item in items if item is not None]
    if not items:
        return HistogramData(
            bounds=LATENCY_BUCKETS, bucket_counts=(0,) * (len(LATENCY_BUCKETS) + 1),
            count=0, total=0, max_value=0,
        )
    bounds = items[0].bounds
    for item in items[1:]:
        if item.bounds != bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{item.bounds!r} != {bounds!r}"
            )
    merged = [0] * (len(bounds) + 1)
    for item in items:
        for index, count in enumerate(item.bucket_counts):
            merged[index] += count
    return HistogramData(
        bounds=bounds,
        bucket_counts=tuple(merged),
        count=sum(item.count for item in items),
        total=sum(item.total for item in items),
        max_value=max(item.max_value for item in items),
    )


@dataclass(frozen=True)
class MetricSample:
    """One instrument's state inside a snapshot."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    labels: LabelItems
    value: Any  # int/float for counter/gauge, HistogramData for histogram

    def label(self, key: str, default: Any = None) -> Any:
        return dict(self.labels).get(key, default)

    def to_dict(self) -> dict[str, Any]:
        value = self.value.to_dict() if self.kind == "histogram" else self.value
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": value,
        }


class MetricsSnapshot:
    """Immutable, queryable view of a registry at one point in time.

    This is what :class:`repro.core.results.RunResult.metrics` holds:
    the accessors are the supported way to read per-stage combine
    counts, queue-occupancy histograms, and round-trip latency
    distributions out of a run.
    """

    __slots__ = ("samples",)

    def __init__(self, samples: tuple[MetricSample, ...] = ()) -> None:
        self.samples = samples

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls(())

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[MetricSample]:
        return iter(self.samples)

    def __bool__(self) -> bool:
        return bool(self.samples)

    # -- queries -------------------------------------------------------
    def _find(self, name: str, labels: dict[str, Any]) -> Optional[MetricSample]:
        key = _label_key(labels)
        for sample in self.samples:
            if sample.name == name and sample.labels == key:
                return sample
        return None

    def counter(self, name: str, **labels: Any) -> int:
        """A counter's value, or 0 when it was never created."""
        sample = self._find(name, labels)
        return sample.value if sample is not None else 0

    def gauge(self, name: str, **labels: Any) -> Optional[Number]:
        sample = self._find(name, labels)
        return sample.value if sample is not None else None

    def histogram(self, name: str, **labels: Any) -> Optional[HistogramData]:
        sample = self._find(name, labels)
        return sample.value if sample is not None else None

    def total(self, name: str) -> Number:
        """Sum of a counter across every label combination."""
        return sum(s.value for s in self.samples
                   if s.name == name and s.kind == "counter")

    def by_label(self, name: str, key: str) -> dict[Any, Any]:
        """Map a label's values to the instrument values for one name.

        ``snapshot.by_label("network.combines", "stage")`` is the
        per-switch-stage combine-count table of the hot-spot analysis.
        """
        out: dict[Any, Any] = {}
        for sample in self.samples:
            if sample.name != name:
                continue
            label_value = sample.label(key)
            if sample.kind == "counter" and label_value in out:
                out[label_value] += sample.value
            else:
                out[label_value] = sample.value
        return out

    def names(self) -> list[str]:
        return sorted({s.name for s in self.samples})

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form: ``{"metrics": [sample dicts...]}`` content."""
        return {"metrics": [s.to_dict() for s in self.samples]}


# ----------------------------------------------------------------------
# cycle tracing
# ----------------------------------------------------------------------


class TraceEvent(NamedTuple):
    """One cycle-stamped event in the life of a memory reference.

    ``tag`` is the request this event belongs to; ``tag2`` (combining
    events only) is the other request of the pair — the surviving R-old
    on a ``combine``, the returning reply on a ``decombine``.  An
    immutable tuple: a full trace makes one per event, and a tuple is
    several times cheaper to build than a frozen dataclass.
    """

    kind: str  # "issue" | "enqueue" | "combine" | "mm_serve" | "decombine" | "reply"
    cycle: int
    tag: Optional[int] = None
    pe: Optional[int] = None
    stage: Optional[int] = None
    mm: Optional[int] = None
    value: Optional[int] = None
    tag2: Optional[int] = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "cycle": self.cycle}
        for name in ("tag", "pe", "stage", "mm", "value", "tag2"):
            attr = getattr(self, name)
            if attr is not None:
                out[name] = attr
        return out


def _column(values: Any) -> Any:
    """A list (or a repeated value) of a column :meth:`CycleTrace.hold`
    takes: a numpy array's values, or ``values`` itself."""
    return values.tolist() if hasattr(values, "tolist") else values


#: fields of a :class:`TraceEvent`, as :class:`CycleTrace` logs them
_FIELDS = len(TraceEvent._fields)


class CycleTrace:
    """Ring-buffered event log with a configurable capacity.

    When the buffer is full the oldest events are discarded;
    :attr:`dropped` counts how many, so a truncated trace is visible
    rather than silently read as complete.

    Recording appends an event's fields to a flat log, and the
    :class:`TraceEvent` objects of the newest ``capacity`` events are
    built when the trace is read: a full trace of a large machine makes
    hundreds of thousands of events, and as surviving objects they
    would set off the garbage collector through the run.

    A producer that makes its events in another order than the one it
    models holds them back (:meth:`hold`), each under its place in that
    order, and :meth:`release` records them sorted by it.  The ring
    keeps the newest events, so sorting before recording also drops
    what the modelled order would drop.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be at least 1 event")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._log: list[Any] = []  # recorded since the last read, flat
        self.total_recorded = 0
        self._held_keys: list[int] = []
        self._held: list[tuple] = []  # columns of each hold

    def record(self, kind: str, cycle: int, tag: Optional[int] = None,
               pe: Optional[int] = None, stage: Optional[int] = None,
               mm: Optional[int] = None, value: Optional[int] = None,
               tag2: Optional[int] = None) -> None:
        self._log += (kind, cycle, tag, pe, stage, mm, value, tag2)
        self.total_recorded += 1
        if len(self._log) > 2 * _FIELDS * self.capacity:
            del self._log[:-_FIELDS * self.capacity]

    def hold(self, keys: Any, kind: str, cycle: int, tags: Any, pes: Any,
             stage: Any, tag2s: Any = None) -> None:
        """Hold back one ``kind`` event per order key, its fields given
        as columns (lists or numpy arrays): ``stage`` is a column or one
        stage for every event, and ``tag2s`` a column or None."""
        n, nones = len(keys), [None] * len(keys)
        self._held_keys.extend(_column(keys))
        self._held.append((
            [kind] * n, [cycle] * n, _column(tags), _column(pes),
            [stage] * n if isinstance(stage, int) else _column(stage),
            nones, nones, nones if tag2s is None else _column(tag2s)))

    def release(self) -> None:
        """Record the held events, stably sorted by key (events held
        under one key keep the order they were held in)."""
        keys, log = self._held_keys, self._log
        if not keys:
            return
        if any(map(operator.gt, keys, keys[1:])):
            rows = list(itertools.chain.from_iterable(
                zip(*columns) for columns in self._held))
            log.extend(itertools.chain.from_iterable(
                rows[x] for x in sorted(range(len(keys)), key=keys.__getitem__)))
        else:
            for columns in self._held:  # interleaved column by column
                start = len(log)
                log.extend(columns[5] * _FIELDS)
                for field, column in enumerate(columns):
                    log[start + field::_FIELDS] = column
        self.total_recorded += len(keys)
        self._held_keys, self._held = [], []
        if len(self._log) > 2 * _FIELDS * self.capacity:
            del self._log[:-_FIELDS * self.capacity]

    def _built(self) -> deque[TraceEvent]:
        """The kept events, the newest ones built from the log first."""
        log = self._log
        if log:
            fields = iter(log[-_FIELDS * self.capacity:])
            # The events hold only ints, strings and None, so no garbage
            # collection while they are built could free anything: the
            # collector waits instead of running once per 700 of them.
            collecting = gc.isenabled()
            gc.disable()
            try:
                self._events.extend(map(tuple.__new__, itertools.repeat(TraceEvent),
                                        zip(*[fields] * _FIELDS)))
            finally:
                if collecting:
                    gc.enable()
            log.clear()
        return self._events

    @property
    def dropped(self) -> int:
        return self.total_recorded - len(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._built())

    def events(self, kind: Optional[str] = None) -> list[TraceEvent]:
        if kind is None:
            return list(self._built())
        return [e for e in self._built() if e.kind == kind]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self._built()]


# ----------------------------------------------------------------------
# facade
# ----------------------------------------------------------------------


class Instrumentation:
    """The per-machine instrumentation context handed to every component.

    ``enabled`` is the single flag probe sites check; when False (the
    default) the registry stays empty and the trace is absent, so the
    simulator's hot loops pay only one attribute load per probe.
    """

    __slots__ = ("enabled", "registry", "trace")

    def __init__(self, enabled: bool = False, trace_capacity: int = 0) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.trace: Optional[CycleTrace] = (
            CycleTrace(trace_capacity) if trace_capacity > 0 else None
        )

    # Instrument creation delegates to the registry; components call
    # these once at construction time and cache the handles.
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: tuple[Number, ...] = LATENCY_BUCKETS, **labels: Any
    ) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, **labels)

    def record(self, kind: str, cycle: int, tag: Optional[int] = None,
               pe: Optional[int] = None, stage: Optional[int] = None,
               mm: Optional[int] = None, value: Optional[int] = None,
               tag2: Optional[int] = None) -> None:
        """Append a trace event (no-op when tracing is off)."""
        if self.trace is not None:
            self.trace.record(kind, cycle, tag, pe, stage, mm, value, tag2)

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()


#: Shared no-op context; components default to this so that directly
#: constructed switches/interfaces (unit tests, ad-hoc experiments)
#: need no wiring.  Never enable or register instruments on it.
DISABLED = Instrumentation(enabled=False)
