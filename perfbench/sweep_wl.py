"""``sweep-xtopo``: the cross-topology Figure 7 grid, cold then warm.

The ``figure7_cross_topology_spec`` grid (omega, hypercube, mesh; 16
PEs, traced, 600 cycles) with a finer rate axis, run on the ``sharded``
backend with 2 shards into a fresh :class:`ResultCache`, then replayed
from the filled cache.  The traced run wraps the cache and a
caller-owned backend in timing proxies and repeats the cold sweep on
every backend for the per-backend overhead rows.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any

from common import HostSpeed, Outcome, TimedCache, Tracer, digest, log, \
    median, p99, peak_rss_mb

from repro.exp import NullCache, SweepRunner, figure7_cross_topology_spec
from repro.exp.backend import ExecutionBackend, make_backend
from repro.exp.cache import ResultCache
from repro.exp.spec import point_hash

#: 20 rates x 3 fabrics = 60 points: a cold sweep of a few seconds
RATES = tuple(round(0.01 * i, 2) for i in range(1, 21))
SHARDS = 2
#: nominal wall time of one cold sweep; a run makes
#: ``round(seconds / COLD_S)`` of them (at least one): at 10 s, three
#: sweeps, so p99 is taken over 180 point latencies
COLD_S = 3.0
#: fresh-interpreter set-ups per run (the median is reported)
SETUP_SAMPLES = 5
#: warm replays after each cold sweep: at least the minimum, then more
#: while the time box lasts
WARM_REPLAYS_MIN = 30
WARM_SECONDS = 1.0

#: what a fresh process does before its first sweep point
SETUP_SCRIPT = """
from repro.exp import SweepRunner, figure7_cross_topology_spec
from repro.exp.backend import make_backend
from repro.exp.cache import ResultCache
spec = figure7_cross_topology_spec(rates={rates!r}, seed=1)
backend = make_backend("sharded", shards={shards}, root={root!r})
runner = SweepRunner(workers={shards}, cache=ResultCache({cache!r}),
                     backend=backend)
"""


def make_spec(seed: int):
    return figure7_cross_topology_spec(rates=RATES, seed=seed)


class TimedBackend(ExecutionBackend):
    """A caller-owned backend whose batches are timed from outside."""

    def __init__(self, inner: ExecutionBackend, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    @property
    def workers(self) -> int:
        return self._inner.workers

    def start(self) -> None:
        self._inner.start()

    def shutdown(self) -> None:
        self._inner.shutdown()

    def run_tasks(self, tasks, **kwargs):
        start = time.perf_counter()
        first = True
        for completion in self._inner.run_tasks(tasks, **kwargs):
            if first:
                self._tracer.add("backend.first_result_s", start,
                                 time.perf_counter(), "backend.run_tasks")
                first = False
            yield completion
        self._tracer.add("backend.run_tasks", start, time.perf_counter())

    def stats(self) -> dict[str, Any]:
        return self._inner.stats()


def _setup_sample(work, speed: HostSpeed) -> float:
    script = SETUP_SCRIPT.format(rates=RATES, shards=SHARDS,
                                 root=str(work / "setup-shards"),
                                 cache=str(work / "setup-cache"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", script], check=True)
    return speed.scaled(start, time.perf_counter())


def _check(spec, result, outcome: Outcome, expected_digest=None) -> str:
    """Check one sweep's payloads; returns their digest."""
    payloads = result.payloads
    found = digest(payloads)
    outcome.check(len(payloads) == spec.n_points,
                  f"sweep: {len(payloads)} of {spec.n_points} points")
    for payload in payloads:
        outcome.check(payload["completed"] == payload["issued"],
                      f"sweep: {payload['topology']} p={payload['rate']} "
                      "left requests undrained")
    if expected_digest is not None:
        outcome.check(found == expected_digest,
                      "sweep: payload digest differs from the oracle")
    return found


def _cold(spec, backend, cache):
    runner = SweepRunner(workers=backend.workers, cache=cache,
                         backend=backend)
    start = time.perf_counter()
    result = runner.run(spec)
    return result, time.perf_counter() - start, runner


def _sharded(work):
    return make_backend("sharded", shards=SHARDS, root=work / "shards")


def _recorded(oracle: dict, seed: int):
    return oracle.get("sweep-xtopo", {}).get("seeds", {}).get(str(seed))


def measure(name: str, seed: int, seconds: float, oracle: dict,
            work, outcome: Outcome) -> dict[str, float]:
    """Every time is scaled to the reference host speed (``HostSpeed``);
    the point latencies, timed in the shard workers, by the speed over
    their sweep."""
    speed = outcome.speed
    setups = [_setup_sample(work, speed) for _ in range(SETUP_SAMPLES)]
    log(f"{name}: set-up samples {[round(s, 3) for s in setups]}")
    spec = make_spec(seed)
    recorded = _recorded(oracle, seed)

    colds, warms, elapsed = [], [], []
    cycles = 0
    for _ in range(max(1, round(seconds / COLD_S))):
        cache = ResultCache(work / f"cache-{len(colds)}")
        start = time.perf_counter()
        result, wall, runner = _cold(spec, _sharded(work), cache)
        factor = speed.factor(start, start + wall)
        colds.append(wall * factor)
        cold_digest = _check(spec, result, outcome, recorded)
        outcome.check(result.computed_points == spec.n_points,
                      "sweep: cold run served points from the cache")
        elapsed += [point.elapsed * factor for point in result.outcomes]
        cycles += sum(p["cycles_total"] for p in result.payloads)
        replays = []
        deadline = time.perf_counter() + WARM_SECONDS
        while len(replays) < WARM_REPLAYS_MIN or time.perf_counter() < deadline:
            start = time.perf_counter()
            warm = runner.run(spec)
            replays.append((start, time.perf_counter()))
            outcome.check(warm.cached_points == spec.n_points
                          and digest(warm.payloads) == cold_digest,
                          "sweep: warm replay differs from the cold run")
        warms += [speed.scaled(*replay) for replay in replays]
        log(f"{name}: cold {wall:.3f} s, {len(replays)} warm replays")

    total_cold = sum(colds)
    outcome.report.append(
        f"{name}: {len(colds)} cold sweeps of {spec.n_points} points, "
        f"{len(warms)} warm replays, {len(setups)} set-up samples; "
        f"latency over {len(elapsed)} point computations; payload digest "
        f"{cold_digest[:16]}")
    return {
        "setup_s": median(setups),
        "sim_cycles_per_s": cycles / total_cold,
        "sweep_cold_s": median(colds),
        "sweep_warm_s": median(warms),
        "latency_p50_ms": median(elapsed) * 1000.0,
        "latency_p99_ms": p99(elapsed) * 1000.0,
        "throughput_rps": len(elapsed) / total_cold,
        "peak_rss_mb": peak_rss_mb(),
    }


def _overhead_ms(wall: float, workers: int, execute_s: float,
                 points: int) -> float:
    """Worker time per point not spent inside point functions."""
    return (wall * workers - execute_s) / points * 1000.0


def trace(name: str, seed: int, seconds: float, oracle: dict, work,
          outcome: Outcome, tracer: Tracer) -> dict[str, float]:
    spec = make_spec(seed)
    points = spec.n_points
    recorded = _recorded(oracle, seed)

    # The untraced cold sweep, for the tracing-overhead ratio.
    _, plain_wall, _ = _cold(spec, _sharded(work),
                             ResultCache(work / "cache-plain"))

    # Traced: the cache and a caller-owned sharded backend behind proxies.
    backend = TimedBackend(_sharded(work), tracer)
    cache = TimedCache(ResultCache(work / "cache-traced"), tracer)
    result, wall, runner = _cold(spec, backend, cache)
    cold_digest = _check(spec, result, outcome, recorded)
    stats = backend.stats()
    sharded = _overhead_ms(wall, SHARDS, stats["execute_s"], points)
    metrics: dict[str, float] = {
        "trace_overhead": wall / plain_wall,
        "exp.cache_put_s": tracer.total("exp.cache_put_s"),
        "backend.first_result_s": tracer.total("backend.first_result_s"),
        "backend.execute_s": stats["execute_s"],
        "backend.queue_wait_s": stats["queue_wait_s"],
        "backend.blocks": stats["blocks"],
        "backend.steals": stats["steals"],
        "backend.respawns": stats["respawns"],
        "exp.point_compute_s": sum(p.elapsed for p in result.outcomes),
        "backend.overhead_ms_per_point": sharded,
        "backend.sharded.overhead_ms_per_point": sharded,
    }

    # One traced warm replay: every get is a span.
    get_before = tracer.total("exp.cache_get_s")
    warm = runner.run(spec)
    outcome.check(digest(warm.payloads) == cold_digest,
                  "sweep: warm replay differs from the cold run")
    cache_stats = cache.stats()
    metrics.update({
        "exp.cache_get_s": tracer.total("exp.cache_get_s") - get_before,
        "exp.cache_hits": cache_stats["hits"],
        "exp.cache_misses": cache_stats["misses"],
        "exp.cache_bytes_read": cache_stats["bytes_read"],
        "exp.cache_bytes_written": cache_stats["bytes_written"],
    })

    # Content addresses of one full replay (median of five passes).
    grid = list(spec.points())
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        for point in grid:
            point_hash(spec.experiment, point)
        passes.append(time.perf_counter() - start)
    metrics["exp.hash_s"] = median(passes)

    # The same cold sweep on the other backends: per-point overhead rows.
    for backend_name in ("serial", "pool"):
        other = make_backend(backend_name, workers=SHARDS)
        try:
            other_result, other_wall, _ = _cold(
                spec, other, ResultCache(work / f"cache-{backend_name}"))
            other_stats = other.stats()
        finally:
            other.shutdown()
        outcome.check(digest(other_result.payloads) == cold_digest,
                      f"sweep: {backend_name} payloads differ from sharded")
        metrics[f"backend.{backend_name}.overhead_ms_per_point"] = (
            _overhead_ms(other_wall, other.workers,
                         other_stats["execute_s"], points))
        log(f"{name}: {backend_name} cold {other_wall:.3f} s")

    outcome.report.append(
        f"{name}: traced cold {wall:.3f} s vs untraced {plain_wall:.3f} s; "
        f"sharded backend stats {stats}")
    return metrics


def record(seeds: list[int]) -> dict[str, Any]:
    """Payload digests of a direct serial run, per seed."""
    out: dict[str, Any] = {"seeds": {}}
    for seed in seeds:
        result = SweepRunner(workers=1, cache=NullCache(),
                             backend="serial").run(make_spec(seed))
        out["seeds"][str(seed)] = digest(result.payloads)
        log(f"recorded sweep-xtopo seed {seed}")
    return out
