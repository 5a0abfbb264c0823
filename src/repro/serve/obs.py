"""The serving-tier stats surface: one record per finished request.

The simulator's observability reconstructs per-request spans from the
cycle trace (:mod:`repro.obs.spans`); the serving tier records each
HTTP request one layer up, classified by how it was served —

* ``"computed"`` — this request was the leader that triggered the
  underlying sweep computation;
* ``"coalesced"`` — it joined a computation already in flight (a
  Pending-Interest-Table hit, the serving-tier combine);
* ``"cache"`` — every point came straight off the content store
  (:class:`~repro.exp.ResultCache`), no worker touched;
* ``"error"`` — the request failed (bad spec, worker crash, ...).

A finished request is counted here and, with its key, status and
duration, emitted as the ``served`` event of the server's fleet log
(:meth:`~repro.serve.server.ServeApp._served`); no other copy of it is
kept.  :class:`ServeStats` holds the counts in the simulator's own
instrument types — a :class:`~repro.instrumentation.MetricsRegistry`
of per-class counters (``serve.requests``) and fixed-bucket latency
histograms (``serve.latency_us``) — so ``GET /stats`` and the
Prometheus exposition at ``GET /metrics`` are two renderings of *one*
store, and both report the same bucket-interpolated
p50/p90/p95/p99 (:meth:`~repro.instrumentation.Histogram.percentiles`)
rather than a private nearest-rank estimate over an unbounded
population list.  Pooled ("all") latency merges the per-class
histograms (:func:`~repro.instrumentation.merge_histograms`), so the
aggregate agrees with its parts by construction.

The **coalescing ratio** is the serving-tier analogue of the combining
rate: the fraction of answered sweep submissions that did *not* trigger
a computation, ``(coalesced + cache) / served``.  The hot-key load
benchmark gates this at >= 0.9, mirroring the paper's claim that
combining absorbs hot-spot traffic before it reaches memory.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..instrumentation import (
    HistogramData,
    MetricsRegistry,
    merge_histograms,
)

#: request classes, in display order
SERVED_BY = ("computed", "coalesced", "cache", "error")

#: Bucket upper edges for request latency in microseconds — spanning
#: a cache hit (~100us) to a multi-second cold sweep.
SERVE_LATENCY_BUCKETS_US: tuple[int, ...] = (
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
    10_000_000,
)

#: Quantiles both ``/stats`` and ``/metrics`` consumers read.
SERVE_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)


def _summary_dict(data: HistogramData) -> dict[str, Any]:
    """The latency summary shape ``/stats`` serves per class."""
    quantiles = data.percentiles(SERVE_QUANTILES)
    out: dict[str, Any] = {
        "count": data.count,
        "mean": data.mean,
    }
    for q in SERVE_QUANTILES:
        out[f"p{int(q * 100)}"] = quantiles[q]
    out["max"] = data.max_value
    return out


class ServeStats:
    """Finished requests: a metrics registry of counters + histograms."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.started_at = clock()
        self.requests = 0
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter("serve.requests", **{"class": name})
            for name in SERVED_BY
        }
        self._histograms = {
            name: self.registry.histogram(
                "serve.latency_us", SERVE_LATENCY_BUCKETS_US,
                **{"class": name},
            )
            for name in SERVED_BY
        }

    @property
    def by_class(self) -> dict[str, int]:
        return {name: self._counters[name].value for name in SERVED_BY}

    def record(self, served_by: str, seconds: float) -> None:
        """Count one finished request of class ``served_by`` that took
        ``seconds`` on the clock."""
        if served_by not in self._counters:
            raise ValueError(f"unknown request class {served_by!r}")
        self.requests += 1
        self._counters[served_by].inc()
        self._histograms[served_by].observe(max(0, round(seconds * 1_000_000)))

    # -- derived -------------------------------------------------------
    @property
    def served(self) -> int:
        """Successfully answered sweep-bearing requests."""
        counts = self.by_class
        return counts["computed"] + counts["coalesced"] + counts["cache"]

    @property
    def coalescing_ratio(self) -> float:
        """Fraction of served submissions that triggered no computation."""
        served = self.served
        if served == 0:
            return 0.0
        counts = self.by_class
        return (counts["coalesced"] + counts["cache"]) / served

    def latency(self, served_by: Optional[str] = None) -> HistogramData:
        """The latency distribution in microseconds, as histogram data.

        ``served_by=None`` pools every class (errors included: a fast
        failure is still a serviced request) by merging the per-class
        histograms — quantiles come from the shared bucket-interpolated
        estimator either way.
        """
        if served_by is None:
            return merge_histograms(
                [self._histograms[name].data() for name in SERVED_BY]
            )
        return self._histograms[served_by].data()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "uptime": self.clock() - self.started_at,
            "requests": self.requests,
            "served": self.served,
            "coalescing_ratio": self.coalescing_ratio,
            "by_class": self.by_class,
            "latency_us": {"all": _summary_dict(self.latency())},
        }
        for name in SERVED_BY:
            data = self._histograms[name].data()
            if data.count:
                out["latency_us"][name] = _summary_dict(data)
        return out
