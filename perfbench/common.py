"""Shared plumbing for the benchmark: metric table, spans, host record.

Every workload module returns a :class:`Outcome`; ``run.py`` turns it
into the one-line JSON result.  Metric names and units come from
``BENCHMARK.json`` at the checkout root, so the printed set and the
declared set cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"

def load_metric_table() -> dict[str, dict[str, dict[str, Any]]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {entry["name"]: entry for entry in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def load_oracle() -> dict[str, Any]:
    return json.loads(ORACLE_PATH.read_text())


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON form (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def p99(values: list[float]) -> float:
    """99th percentile, interpolated between neighbouring samples (a
    nearest-rank p99 of a few hundred samples jumps between the two
    slowest)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate(n: int = 2_000_000) -> float:
    """Host speed reference: integer-add loop throughput (ops/sec).

    The same loop ``benchmarks/bench_hot_path.py`` normalises by, copied
    here so the figure can be compared across hosts.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    return n / (time.perf_counter() - start)


#: integer-add loop rate that end-to-end times are scaled to (ops/sec)
REFERENCE_OPS_PER_S = 25e6
#: loop length of one speed probe (about 2 ms at the reference rate)
PROBE_OPS = 50_000
#: wall time between probes while a run is sampled
PROBE_INTERVAL_S = 0.1
#: probes this close to either end of a timed interval count for it
PROBE_MARGIN_S = 0.25


class HostSpeed:
    """Host CPU speed, probed all through a run, to scale its times by.

    On a shared host the speed of the same code swings by up to 1.7x
    within seconds and drifts over minutes, as co-tenant load moves
    clock frequency and core sharing; no median over a run removes
    that.  While :meth:`sampling` is active a timer interrupts the main
    thread every :data:`PROBE_INTERVAL_S` to time a short integer-add
    loop in thread CPU time (so a probe that waits for a core reads the
    core's speed, not its share).  The probes are spread evenly in wall
    time, so the mean rate of those taken while an interval ran is the
    host's mean speed over it.  Each end-to-end time is reported at the
    reference speed (:meth:`scaled`): measured seconds times that mean
    over :data:`REFERENCE_OPS_PER_S`.  The probe is the benchmark's own
    loop, so no change to the program can move it; it costs about 2% of
    the run.
    """

    def __init__(self) -> None:
        #: (``perf_counter`` when taken, integer-add ops/sec)
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        start = time.thread_time()
        acc = 0
        for i in range(PROBE_OPS):
            acc += i & 7
        rate = PROBE_OPS / (time.thread_time() - start)
        self.probes.append((time.perf_counter(), rate))

    @contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Mean rate of the probes taken from ``start`` to ``end`` (give
        or take :data:`PROBE_MARGIN_S`) over the reference rate; the
        nearest probe stands in when none falls inside, 1.0 when there
        are no probes at all."""
        rates = [rate for taken, rate in self.probes
                 if start - PROBE_MARGIN_S <= taken <= end + PROBE_MARGIN_S]
        if not rates and self.probes:
            middle = (start + end) / 2
            rates = [min(self.probes, key=lambda p: abs(p[0] - middle))[1]]
        if not rates:
            return 1.0
        return statistics.fmean(rates) / REFERENCE_OPS_PER_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> str:
        rates = [rate for _, rate in self.probes]
        if not rates:
            return "host speed: no probes"
        return (f"host speed: {len(rates)} probes, integer-add rate "
                f"{min(rates) / 1e6:.1f}-{max(rates) / 1e6:.1f} M/s, mean "
                f"{statistics.fmean(rates) / 1e6:.2f} M/s (times are scaled "
                f"to {REFERENCE_OPS_PER_S / 1e6:.0f} M/s)")


def host_record() -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # the batch kernel needs it; report the gap
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_ops_per_sec": round(calibrate()),
    }


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[str] = None


class Tracer:
    """In-memory spans around calls into each layer, summed by name.

    Spans are kept whole (name, start, end, parent) and written out once
    at the end of a traced run; ``total(name)`` is what the per-layer
    metrics read.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._totals: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, parent: Optional[str] = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent)

    def add(self, name: str, start: float, end: float,
            parent: Optional[str] = None) -> None:
        self.spans.append(Span(name, start, end, parent))
        self._totals[name] = self._totals.get(name, 0.0) + (end - start)

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def to_list(self) -> list[dict[str, Any]]:
        return [vars(span) for span in self.spans]


class TimedCache:
    """A result cache whose get/put are timed as spans."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def get(self, key: str):
        with self._tracer.span("exp.cache_get_s"):
            return self._inner.get(key)

    def put(self, key: str, payload: Any, *, meta=None) -> None:
        with self._tracer.span("exp.cache_put_s"):
            self._inner.put(key, payload, meta=meta)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: human-readable lines printed before the JSON result
    report: list[str] = field(default_factory=list)
    #: probed all through an untraced run; scales its end-to-end times
    speed: HostSpeed = field(default_factory=HostSpeed)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record a failure with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report.append(f"FAILED: {what}")
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / max(1, self.attempted)


def log(message: str) -> None:
    """Progress to stderr (stdout's last line is reserved for the result)."""
    print(message, file=sys.stderr, flush=True)
