"""The two 4096-PE machine workloads: ``fig7-sim-4096`` and ``barrier-4096``.

Untraced runs time whole simulations on the ``batch`` kernel (the spec
default at this size).  Traced runs add the kernel table (every
registered kernel, checked bit-identical) and a phase-stepped run of the
dense schedule, timing each of ``DenseKernel.step``'s seven phase loops
as one span so the host time splits into named layers with a checked
remainder (``machine.unattributed_s``).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import time
from typing import Any, Callable, Optional

from common import (
    Outcome,
    Tracer,
    digest,
    log,
    median,
    peak_rss_mb,
    p99,
)

from repro import FetchAdd, MachineConfig, Ultracomputer
from repro.analysis.queueing import CapacityExceededError, predict_uniform_run
from repro.core.scheduler import kernel_names
from repro.exp.cache import ResultCache
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

PES = 4096
#: builds per run for the set-up median (the last one is run)
SETUP_BUILDS = 3
#: cache replays of the run's result for ``sweep_warm_s``: a few
#: untimed ones, then at least the minimum and more while the time box
#: lasts (the fig7 result is a few kB and reads in microseconds; the
#: barrier one is over 1 MB)
WARM_UP_REPLAYS = 5
WARM_REPLAYS_MIN = 15
WARM_REPLAYS_MAX = 5000
WARM_SECONDS = 1.0

#: the seven phase loops of ``DenseKernel.step``, in its documented order
PHASES = (
    "interfaces.mni_tick_s",
    "network.step_forward_s",
    "interfaces.pni_tick_outbound_s",
    "network.step_return_s",
    "interfaces.mni_tick_outbound_s",
    "drivers.tick_s",
    "network.advance_cycle_s",
)


def phase_step(m: Ultracomputer, tracer: Tracer) -> None:
    """One dense cycle driven from outside, one span per phase loop."""
    clock = time.perf_counter
    cycle = m.cycle
    t0 = clock()
    for mni in m.mnis:
        mni.tick(cycle)
    t1 = clock()
    for network in m.networks:
        network.step_forward()
    t2 = clock()
    for pni in m.pnis:
        pni.tick_outbound(cycle, m._inject_request)
    t3 = clock()
    for network in m.networks:
        network.step_return()
    t4 = clock()
    for mni in m.mnis:
        mni.tick_outbound(cycle, m._inject_reply)
    t5 = clock()
    for driver in m.drivers:
        driver.tick(cycle)
    t6 = clock()
    for network in m.networks:
        network.advance_cycle()
    t7 = clock()
    m.cycle += 1
    marks = (t0, t1, t2, t3, t4, t5, t6, t7)
    parent = f"cycle{cycle}"
    for name, start, end in zip(PHASES, marks, marks[1:]):
        tracer.add(name, start, end, parent)


def model_error(m: Ultracomputer, requests: int, offered_cycles: int,
                mean_round_trip: float) -> float:
    """Observed round trip against the uniform-traffic closed form, with
    p taken from the observed issue rate (as ``obs/drift.py`` does)."""
    cfg = m.config
    rate = requests / (cfg.n_pes * offered_cycles)
    try:
        predicted = predict_uniform_run(
            cfg.n_pes, cfg.k, rate, mm_latency=cfg.mm_latency,
            topology=m.topology,
        ).round_trip
    except CapacityExceededError:
        return -1.0
    return abs(mean_round_trip - predicted) / predicted


class Fig7:
    """One ``fig7.simulated`` point: uniform Bernoulli(0.05) traffic for
    200 offered cycles, then drain (the paper's 4096-PE design point)."""

    name = "fig7-sim-4096"
    #: nominal wall time of one simulation; a run times
    #: ``round(seconds / run_s)`` of them (at least one), so the work per
    #: run does not depend on how fast the host happens to be
    run_s = 12.0
    rate = 0.05
    cycles = 200
    #: the traffic seed changes the simulated statistics
    sim_depends_on_seed = True
    #: dense is timed over the whole run here
    dense_window: Optional[int] = None

    def build(self, kernel: str, seed: int):
        start = time.perf_counter()
        m = Ultracomputer(MachineConfig(n_pes=PES, kernel=kernel))
        built = time.perf_counter()
        ctx = SyntheticTrafficDriver(
            m, TrafficSpec(rate=self.rate, pattern="uniform", seed=seed)
        )
        m.attach_driver(ctx)
        return m, ctx, built - start, time.perf_counter() - built

    def run(self, m, ctx, step: Optional[Callable[[], None]] = None,
            window: Optional[int] = None):
        """Offer traffic, then drain; ``step`` replaces the kernel's loop."""
        if step is None:
            m.run_cycles(self.cycles)
            step = m.step
        else:
            for _ in range(self.cycles):
                step()
        ctx.spec = dataclasses.replace(ctx.spec, rate=0.0)
        for _ in range(self.cycles * 4):
            if all(pni.outstanding() == 0 for pni in m.pnis):
                break
            step()

    def sim(self, m, ctx, result) -> dict[str, Any]:
        traffic = ctx.stats()
        return {
            "cycles": result.cycles,
            "requests": result.requests_issued,
            "combines": result.combines,
            "decombines": result.decombines,
            "memory_accesses": result.memory_accesses,
            "mean_round_trip": result.mean_round_trip,
            "idle_cycles": result.idle_cycles,
            "blocked_attempts": traffic.blocked_attempts,
            "model_error": model_error(m, result.requests_issued,
                                       self.cycles, result.mean_round_trip),
        }

    def checks(self, m, ctx, result) -> list[tuple[bool, str]]:
        traffic = ctx.stats()
        return [
            (result.requests_issued > 0, "fig7: no requests issued"),
            (traffic.completed == traffic.issued,
             f"fig7: {traffic.issued - traffic.completed} requests undrained"),
            (all(pni.outstanding() == 0 for pni in m.pnis),
             "fig7: PNIs still hold outstanding requests"),
            (result.memory_accesses + result.combines
             == result.requests_issued,
             "fig7: memory accesses + combines differ from requests"),
        ]


def barrier_program(pe_id, increments, gap):
    fetched = []
    for inc in increments:
        yield gap
        fetched.append((yield FetchAdd(0, inc)))
    return fetched


class Barrier:
    """Synchronised barrier rounds: a compute gap, then every PE
    fetch-and-adds one cell.  The seed draws each PE's increments, which
    changes return values but not timing, so the simulated counts are
    the same for every seed."""

    name = "barrier-4096"
    run_s = 5.0
    rounds = 24
    gap = 100
    sim_depends_on_seed = False
    #: dense timing window: one compute gap plus the first burst
    dense_window: Optional[int] = 150

    def increments(self, seed: int) -> list[list[int]]:
        rng = random.Random(seed)
        return [[rng.randint(1, 7) for _ in range(self.rounds)]
                for _ in range(PES)]

    def build(self, kernel: str, seed: int):
        increments = self.increments(seed)
        start = time.perf_counter()
        m = Ultracomputer(MachineConfig(n_pes=PES, kernel=kernel))
        built = time.perf_counter()
        for pe in range(PES):
            m.spawn(barrier_program, increments[pe], self.gap)
        return m, increments, built - start, time.perf_counter() - built

    def run(self, m, ctx, step: Optional[Callable[[], None]] = None,
            window: Optional[int] = None):
        if step is None:
            if window is None:
                m.run()
            else:
                m.run_cycles(window)
            return
        if window is None:
            while not m.quiescent():
                step()
        else:
            for _ in range(window):
                step()

    def sim(self, m, ctx, result) -> dict[str, Any]:
        return {
            "cycles": result.cycles,
            "requests": result.requests_issued,
            "combines": result.combines,
            "decombines": result.decombines,
            "memory_accesses": result.memory_accesses,
            "mean_round_trip": result.mean_round_trip,
            "idle_cycles": result.idle_cycles,
            "blocked_attempts": 0,
            "model_error": model_error(m, result.requests_issued,
                                       result.cycles, result.mean_round_trip),
        }

    def checks(self, m, ctx, result) -> list[tuple[bool, str]]:
        """Fetch-and-add semantics: the fetched values, sorted, must chain
        0 -> v1 -> ... -> final through the increments (one serial order
        explains every reply), and the cell must hold the total."""
        increments = ctx
        pairs = []
        finished = True
        for pe in range(PES):
            pe_result = result.per_pe[pe]
            finished = finished and pe_result.finished
            fetched = pe_result.return_value or []
            pairs.extend(zip(fetched, increments[pe]))
        pairs.sort()
        chained = len(pairs) == PES * self.rounds
        value = 0
        for fetched, inc in pairs:
            if fetched != value:
                chained = False
                break
            value += inc
        total = sum(map(sum, increments))
        return [
            (finished, "barrier: a PE did not finish"),
            (result.requests_issued == PES * self.rounds,
             "barrier: wrong request count"),
            (chained, "barrier: fetched values are not one serial order"),
            (m.peek(0) == total, "barrier: final counter differs from the "
                                 "sum of increments"),
        ]


WORKLOADS = {wl.name: wl for wl in (Fig7(), Barrier())}


def oracle_checks(wl, oracle: dict, seed: int, sim: dict,
                  result_digest: str) -> list[tuple[bool, str]]:
    entry = oracle.get(wl.name, {})
    recorded = entry.get("seeds", {}).get(str(seed), {})
    expected_sim = recorded.get("sim", entry.get("sim"))
    out = []
    if expected_sim is not None:
        out.append((sim == expected_sim,
                    f"{wl.name}: simulated statistics differ from the oracle"))
    if "digest" in recorded:
        out.append((result_digest == recorded["digest"],
                    f"{wl.name}: RunResult digest differs from the oracle"))
    return out


def _result_of(wl, m, ctx, step=None, window=None):
    start = time.perf_counter()
    wl.run(m, ctx, step=step, window=window)
    wall = time.perf_counter() - start
    return m.stats(), wall


def _cache_key(wl, seed: int) -> str:
    return digest({"workload": wl.name, "seed": seed, "pes": PES})


def measure(name: str, seed: int, seconds: float, oracle: dict,
            work, outcome: Outcome) -> dict[str, float]:
    """The untraced run: end-to-end metrics on the batch kernel, every
    time scaled to the reference host speed (``HostSpeed``)."""
    wl = WORKLOADS[name]
    speed = outcome.speed
    setups: list[float] = []

    def build():
        gc.collect()
        start = time.perf_counter()
        built = wl.build("batch", seed)
        build_s, spawn_s = built[2:]
        setups.append((build_s + spawn_s)
                      * speed.factor(start, time.perf_counter()))
        return built[:2]

    for _ in range(SETUP_BUILDS):
        machine = ctx = None  # one 4096-PE machine alive at a time
        machine, ctx = build()
    log(f"{name}: set-up samples {[round(s, 3) for s in setups]}")

    walls: list[float] = []
    cycles = requests = 0
    first_payload = None
    for run in range(max(1, round(seconds / wl.run_s))):
        if run:
            machine = ctx = None
            machine, ctx = build()
        start = time.perf_counter()
        result, wall = _result_of(wl, machine, ctx)
        walls.append(wall * speed.factor(start, start + wall))
        cycles += result.cycles
        requests += result.requests_issued
        sim = wl.sim(machine, ctx, result)
        payload = result.to_dict()
        result_digest = digest(payload)
        for ok, what in wl.checks(machine, ctx, result) + \
                oracle_checks(wl, oracle, seed, sim, result_digest):
            outcome.check(ok, what)
        if first_payload is None:
            first_payload = payload
            outcome.report.append(
                f"{name}: sim {json.dumps(sim, sort_keys=True)} "
                f"digest {result_digest[:16]}")
        log(f"{name}: run {len(walls)} {wall:.3f} s, {result.cycles} cycles")
    machine = ctx = result = None
    gc.collect()  # replays should not pay for collecting the machine

    # Warm replay: the run's result read back from the content store.
    cache = ResultCache(work / "cache")
    key = _cache_key(wl, seed)
    cache.put(key, first_payload)
    expected = json.loads(json.dumps(first_payload))
    for _ in range(WARM_UP_REPLAYS):  # page cache and allocator arenas
        cache.get(key)
    replays: list[float] = []
    warm_start = time.perf_counter()
    deadline = warm_start + WARM_SECONDS
    while len(replays) < WARM_REPLAYS_MAX and (
            len(replays) < WARM_REPLAYS_MIN
            or time.perf_counter() < deadline):
        start = time.perf_counter()
        payload = cache.get(key)
        replays.append(time.perf_counter() - start)
        outcome.check(payload == expected, f"{name}: cache replay differs")
    warm_factor = speed.factor(warm_start, time.perf_counter())

    total_wall = sum(walls)
    outcome.report.append(
        f"{name}: {len(walls)} timed run(s), {len(setups)} set-up samples, "
        f"{len(replays)} warm replays")
    return {
        "setup_s": median(setups),
        "sim_cycles_per_s": cycles / total_wall,
        "sweep_cold_s": walls[0],
        "sweep_warm_s": median(replays) * warm_factor,
        "latency_p50_ms": median(walls) * 1000.0,
        "latency_p99_ms": p99(walls) * 1000.0,
        "throughput_rps": requests / total_wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(name: str, seed: int, seconds: float, oracle: dict, work,
          outcome: Outcome, tracer: Tracer) -> dict[str, float]:
    """The traced run: kernel table, phase attribution, machine layers."""
    wl = WORKLOADS[name]
    metrics: dict[str, float] = {}

    # Reference run on the batch kernel, with build/spawn/stats timed.
    gc.collect()
    m, ctx, build_s, spawn_s = wl.build("batch", seed)
    result, wall = _result_of(wl, m, ctx)
    with tracer.span("machine.stats_s"):
        result = m.stats()
    sim = wl.sim(m, ctx, result)
    reference = result.to_dict()
    result_digest = digest(reference)
    for ok, what in wl.checks(m, ctx, result) + \
            oracle_checks(wl, oracle, seed, sim, result_digest):
        outcome.check(ok, what)
    metrics.update({f"sim.{key}": value for key, value in sim.items()})
    metrics["host_us_per_request"] = wall / result.requests_issued * 1e6
    rates = {"batch": result.cycles / wall}
    m = ctx = None

    # Every other kernel; the dense one over a window where the whole
    # run would take minutes, with parity checked on the same window.
    window = wl.dense_window
    window_reference = None
    if window is not None:
        gc.collect()
        m, ctx, _, _ = wl.build("batch", seed)
        window_reference = _result_of(wl, m, ctx, window=window)[0].to_dict()
        m = ctx = None
    dense_wall = None
    for kernel in kernel_names():
        if kernel == "batch":
            continue
        gc.collect()
        m, ctx, _, _ = wl.build(kernel, seed)
        use_window = window if kernel == "dense" else None
        result_k, wall_k = _result_of(wl, m, ctx, window=use_window)
        expected = reference if use_window is None else window_reference
        outcome.check(result_k.to_dict() == expected,
                      f"{name}: kernel {kernel} diverged from batch")
        rates[kernel] = result_k.cycles / wall_k
        if kernel == "dense":
            dense_wall = wall_k
        log(f"{name}: kernel {kernel} {wall_k:.3f} s")
        m = ctx = None
    for kernel, rate in rates.items():
        metrics[f"kernel.{kernel}.cycles_per_s"] = rate

    # Phase-stepped dense schedule, driven from here.
    gc.collect()
    m, ctx, _, _ = wl.build("dense", seed)
    start = time.perf_counter()
    wl.run(m, ctx, step=lambda: phase_step(m, tracer), window=window)
    phased_wall = time.perf_counter() - start
    phased = m.stats().to_dict()
    expected = reference if window is None else window_reference
    outcome.check(phased == expected,
                  f"{name}: phase-stepped dense run differs from "
                  "Ultracomputer.run")
    m = ctx = None
    phase_sum = sum(tracer.total(phase) for phase in PHASES)
    for phase in PHASES:
        metrics[phase] = tracer.total(phase)
    metrics["machine.build_s"] = build_s
    metrics["machine.spawn_s"] = spawn_s
    metrics["machine.stats_s"] = tracer.total("machine.stats_s")
    metrics["machine.unattributed_s"] = phased_wall - phase_sum
    metrics["trace_overhead"] = phased_wall / dense_wall

    # The result's round trip through the content store.
    cache = ResultCache(work / "cache")
    with tracer.span("exp.hash_s"):
        key = _cache_key(wl, seed)
    with tracer.span("exp.cache_put_s"):
        cache.put(key, reference)
    with tracer.span("exp.cache_get_s"):
        outcome.check(cache.get(key) == json.loads(json.dumps(reference)),
                      f"{name}: cache replay differs")
    stats = cache.stats()
    for metric in ("exp.hash_s", "exp.cache_put_s", "exp.cache_get_s"):
        metrics[metric] = tracer.total(metric)
    metrics.update({
        "exp.cache_hits": stats["hits"],
        "exp.cache_misses": stats["misses"],
        "exp.cache_bytes_read": stats["bytes_read"],
        "exp.cache_bytes_written": stats["bytes_written"],
    })

    event_rate = rates["event"]
    close = sorted(k for k, r in rates.items() if r >= 0.9 * event_rate)
    scope = f"first {window} cycles" if window else "whole run"
    outcome.report += [
        f"{name}: kernel table (dense over the {scope}):",
        *(f"  {k:>6} {r:12.1f} cycles/s  {r / event_rate:6.2f}x event"
          for k, r in sorted(rates.items())),
        f"{name}: kernels within 10% of event: {', '.join(close)}",
        f"{name}: phases {phase_sum:.3f} s + unattributed "
        f"{phased_wall - phase_sum:.3f} s = phase-stepped wall "
        f"{phased_wall:.3f} s ({scope})",
    ]
    return metrics


def record(seeds: list[int]) -> dict[str, Any]:
    """Oracle entries for both workloads (batch kernel)."""
    out: dict[str, Any] = {}
    for wl in WORKLOADS.values():
        entry: dict[str, Any] = {"seeds": {}}
        for seed in seeds:
            gc.collect()
            m, ctx, _, _ = wl.build("batch", seed)
            result, _ = _result_of(wl, m, ctx)
            sim = wl.sim(m, ctx, result)
            bad = [what for ok, what in wl.checks(m, ctx, result)
                   if not ok]
            if bad:
                raise RuntimeError(f"{wl.name} seed {seed}: {bad}")
            seed_entry = {"digest": digest(result.to_dict())}
            if wl.sim_depends_on_seed:
                seed_entry["sim"] = sim
            elif entry.setdefault("sim", sim) != sim:
                raise RuntimeError(f"{wl.name}: seed {seed} changed the "
                                   "simulated statistics")
            entry["seeds"][str(seed)] = seed_entry
            log(f"recorded {wl.name} seed {seed}")
        out[wl.name] = entry
    return out
