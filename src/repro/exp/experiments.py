"""Built-in experiment definitions: the paper's artifacts as specs.

Each artifact the evaluation regenerates is expressed twice here:

* a **point function** (registered under a dotted name) that evaluates
  one sweep point from a parameter dict and returns a JSON payload;
* a **spec builder** (``figure7_spec`` etc.) that assembles the
  corresponding :class:`~repro.exp.spec.ExperimentSpec` — the
  declarative object the CLI, the benchmarks, and the tests all hand to
  a :class:`~repro.exp.engine.SweepRunner`.

The point functions import their subject modules lazily so that worker
processes only pay for what a given experiment touches, and so this
module never participates in an import cycle with the layers it drives.

Seeds: every point receives the spec's ``seed``.  For the stochastic
network replays it seeds the RNG directly.  For the cycle-accurate
machine runs, which are deterministic, ``seed=0`` reproduces the
paper's lockstep start exactly, while any other seed staggers PE start
times by a seeded pseudo-random delay (see :func:`start_delays`) —
reproducible stochastic arrival patterns from the shell.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Optional, Sequence

from .registry import point_function
from .spec import ExperimentSpec, SweepAxis


def start_delays(seed: int, pes: int) -> list[int]:
    """Per-PE start delays: all zero for seed 0 (the lockstep default),
    otherwise a reproducible draw from ``[0, pes)`` per PE."""
    if seed == 0:
        return [0] * pes
    rng = random.Random(seed)
    return [rng.randrange(0, max(1, pes)) for _ in range(pes)]


# ----------------------------------------------------------------------
# Figure 7: analytic transit-time curves (one point per network design)
# ----------------------------------------------------------------------
@point_function("fig7.design_curve")
def fig7_design_curve(params: dict) -> dict[str, Any]:
    from ..analysis.configurations import NetworkDesign

    k, d = params["design"]
    design = NetworkDesign(
        k=k, d=d, bandwidth_constant=params.get("bandwidth_constant", 1.0)
    )
    n = params["n"]
    points = [
        {"p": p, "transit_time": design.transit_time(p, n)}
        for p in params["p_grid"]
        if p < design.capacity * 0.999
    ]
    return {
        "label": design.label(),
        "k": k,
        "d": d,
        "capacity": design.capacity,
        "cost_factor": design.cost_factor,
        "points": points,
    }


def figure7_spec(
    n: int = 4096,
    designs: Optional[Sequence] = None,
    p_grid: Optional[Sequence[float]] = None,
) -> ExperimentSpec:
    """The Figure 7 sweep: every candidate design over the p grid."""
    from ..analysis.configurations import FIGURE7_DESIGNS, FIGURE7_P_GRID

    if designs is None:
        designs = FIGURE7_DESIGNS
    if p_grid is None:
        p_grid = FIGURE7_P_GRID
    return ExperimentSpec(
        experiment="fig7.design_curve",
        base={"n": n, "p_grid": tuple(p_grid)},
        axes=(SweepAxis("design", tuple((d.k, d.d) for d in designs)),),
        label=f"Figure 7 transit-time curves (n={n})",
    )


@point_function("fig7.simulated")
def fig7_simulated(params: dict) -> dict[str, Any]:
    """One cycle-accurate point under Figure 7's workload model.

    Runs uniform Bernoulli(p) traffic through the real machine (any
    kernel — this is the 4096-PE case the batch kernel exists for),
    then drains, and reports the observed mean round trip next to the
    analytic transit time the figure plots.  The observed number is a
    full round trip (request transit + memory service + reply transit)
    where the analytic curve is one-way queueing transit, so the
    payload carries both rather than pretending they share units; what
    the comparison checks is the *shape* — that simulated latency at a
    given p sits in the regime the closed form predicts.
    """
    from ..analysis.configurations import NetworkDesign
    from ..workloads.synthetic import run_uniform_traffic

    pes = params["pes"]
    rate = params["rate"]
    cycles = params.get("cycles", 200)
    kernel = params.get("kernel", "dense")
    traffic, machine = run_uniform_traffic(pes, rate, cycles,
                                           seed=params["seed"], kernel=kernel)
    config = machine.config
    design = NetworkDesign(k=config.k, d=config.copies)
    return {
        "pes": pes,
        "kernel": kernel,
        "rate": rate,
        "cycles_offered": cycles,
        "cycles_total": machine.cycle,
        "issued": traffic.issued,
        "completed": traffic.completed,
        "blocked_attempts": traffic.blocked_attempts,
        "observed_mean_round_trip": traffic.mean_latency,
        "observed_max_round_trip": traffic.max_latency,
        "analytic_transit_time": design.transit_time(rate, pes),
    }


def figure7_simulated_spec(
    pes: int = 4096,
    rates: Sequence[float] = (0.02, 0.05),
    *,
    cycles: int = 200,
    kernel: str = "batch",
    seed: int = 1,
) -> ExperimentSpec:
    """Simulated companion points for Figure 7's analytic curves."""
    return ExperimentSpec(
        experiment="fig7.simulated",
        base={"pes": pes, "cycles": cycles, "kernel": kernel},
        axes=(SweepAxis("rate", tuple(rates)),),
        seed=seed,
        label=f"Figure 7 simulated points ({pes} PEs, kernel={kernel})",
    )


@point_function("fig7.cross_topology")
def fig7_cross_topology(params: dict) -> dict[str, Any]:
    """One latency-vs-load point on a named fabric (Figure 7, but with
    the network plane swapped).

    The paper's Figure 7 compares Omega design points (k, d); this
    experiment holds the design fixed and varies the *topology* —
    Omega, binary hypercube, 2-D mesh — running the same uniform
    Bernoulli(p) workload through the cycle-accurate machine,
    uninstrumented.  The payload pairs the observed round trip and the
    mean per-hop switch delay with the generalized hop-class
    prediction, plus the structural facts (switches, links, crosspoint
    chip budget) a cost-per-latency comparison needs.  The delay is
    read from the networks' stage-delay counters, which count the hops
    a traced run's spans report (``SpanSet.stage_delays``): the same
    integer sum over the same count.
    """
    from ..analysis.packaging import topology_chip_budget
    from ..analysis.queueing import CapacityExceededError, predict_uniform_run
    from ..network.topology import make_topology
    from ..workloads.synthetic import run_uniform_traffic

    pes = params["pes"]
    rate = params["rate"]
    cycles = params.get("cycles", 600)
    kernel = params.get("kernel", "dense")
    topology = params.get("topology", "omega")
    k = params.get("k", 2)

    topo = make_topology(topology, pes, k)
    traffic, machine = run_uniform_traffic(pes, rate, cycles,
                                           seed=params["seed"], k=k,
                                           kernel=kernel, topology=topology)
    result = machine.stats()
    networks = machine.networks
    delay_sum = sum(sum(network.stage_delay_sum) for network in networks)
    delay_count = sum(sum(network.stage_delay_count) for network in networks)
    observed_rate = result.requests_issued / (pes * cycles)
    try:
        prediction = predict_uniform_run(pes, k, observed_rate, topology=topo)
        predicted_round_trip = prediction.round_trip
        predicted_switch_delay = prediction.forward_switch_delay
    except CapacityExceededError:
        # Past saturation the closed form has no finite answer; the
        # observed numbers still chart the saturated regime.
        predicted_round_trip = None
        predicted_switch_delay = None
    budget = topology_chip_budget(topo)
    return {
        "topology": topology,
        "pes": pes,
        "kernel": kernel,
        "rate": rate,
        "observed_rate": observed_rate,
        "cycles_offered": cycles,
        "cycles_total": machine.cycle,
        "issued": traffic.issued,
        "completed": traffic.completed,
        "blocked_attempts": traffic.blocked_attempts,
        "combines": result.combines,
        "observed_mean_round_trip": result.mean_round_trip,
        "observed_max_round_trip": traffic.max_latency,
        "observed_mean_stage_delay": (
            delay_sum / delay_count if delay_count else None
        ),
        "predicted_round_trip": predicted_round_trip,
        "predicted_switch_delay": predicted_switch_delay,
        "stages": topo.stages,
        "switch_arity": topo.switch_arity,
        "n_switches": topo.n_switches,
        "n_links": topo.n_links,
        "network_chips": budget["network"],
    }


#: The rate grid the cross-topology Figure 7 sweeps by default: low
#: load through the knee of the 16-port fabrics.
CROSS_TOPOLOGY_RATES = (0.02, 0.05, 0.10, 0.15, 0.20)


def figure7_cross_topology_spec(
    topologies: Sequence[str] = ("omega", "hypercube", "mesh"),
    pes: int = 16,
    rates: Sequence[float] = CROSS_TOPOLOGY_RATES,
    *,
    cycles: int = 600,
    kernel: str = "dense",
    k: int = 2,
    seed: int = 1,
) -> ExperimentSpec:
    """The cross-topology Figure 7: every fabric over the load grid.

    The default 16 PEs is the largest size valid for all three fabrics
    that still traces comfortably (omega/hypercube need powers of two,
    the mesh needs squares; 16 = 2**4 = 4**2 satisfies both).
    """
    return ExperimentSpec(
        experiment="fig7.cross_topology",
        base={"pes": pes, "cycles": cycles, "kernel": kernel, "k": k},
        axes=(
            SweepAxis("topology", tuple(topologies)),
            SweepAxis("rate", tuple(rates)),
        ),
        seed=seed,
        label=f"Figure 7 across fabrics ({pes} PEs, kernel={kernel})",
    )


# ----------------------------------------------------------------------
# Table 1: trace replay through the stochastic queueing network
# ----------------------------------------------------------------------
def _table1_traces(workload: str):
    from ..apps import poisson, tred2, weather

    builders = {
        "weather-16": lambda: weather.build_traces(16, 8, 16),
        "weather-48": lambda: weather.build_traces(48, 4, 48),
        "tred2-16": lambda: tred2.build_traces(32, 16),
        "poisson-16": lambda: poisson.build_traces(32, 2, 16),
    }
    try:
        return builders[workload]()
    except KeyError:
        raise ValueError(
            f"unknown Table 1 workload {workload!r}; "
            f"choose from {sorted(builders)}"
        ) from None


TABLE1_WORKLOADS = ("weather-16", "weather-48", "tred2-16", "poisson-16")


@point_function("table1.replay")
def table1_replay(params: dict) -> dict[str, Any]:
    from ..apps.traces import replay
    from ..network.stochastic import StochasticConfig, StochasticNetwork

    workload = params["workload"]
    traces = _table1_traces(workload)
    network = StochasticNetwork(StochasticConfig(seed=params["seed"]))
    row = replay(workload, traces, network)
    return dataclasses.asdict(row)


def table1_spec(seed: int = 1) -> ExperimentSpec:
    """The Table 1 sweep: one point per traced program."""
    return ExperimentSpec(
        experiment="table1.replay",
        axes=(SweepAxis("workload", TABLE1_WORKLOADS),),
        seed=seed,
        label="Table 1 network traffic and performance",
    )


# ----------------------------------------------------------------------
# Tables 2/3: parallel TRED2 measurements on the paracomputer
# ----------------------------------------------------------------------
@point_function("tred2.measure")
def tred2_measure(params: dict) -> dict[str, Any]:
    from ..apps.tred2 import measure

    processors, matrix_size = params["pair"]
    sample, _, _ = measure(processors, matrix_size, seed=params["seed"])
    return {
        "processors": sample.processors,
        "matrix_size": sample.matrix_size,
        "total_time": sample.total_time,
        "waiting_time": sample.waiting_time,
    }


def tred2_spec(
    pairs: Sequence[tuple[int, int]], seed: int = 0
) -> ExperimentSpec:
    """The Table 2 measurement sweep over explicit (P, N) pairs.

    The pairs are one axis (not a Cartesian product): the paper, like
    us, could only afford the feasible corner of the (P, N) plane.
    """
    return ExperimentSpec(
        experiment="tred2.measure",
        axes=(SweepAxis("pair", tuple(tuple(p) for p in pairs)),),
        seed=seed,
        label=f"TRED2 cost-model measurements ({len(tuple(pairs))} pairs)",
    )


# ----------------------------------------------------------------------
# Machine runs: hot-spot sweeps and the demo, as cacheable points
# ----------------------------------------------------------------------
def build_hotspot_machine(params: dict):
    """Assemble (without running) the hot-spot machine for ``params``.

    Shared by the ``machine.hotspot`` point function and the CLI's
    ``stats``/``trace`` subcommands, which need the live machine (for
    :class:`MetricsSnapshot` / trace objects) rather than the payload.
    """
    from ..core.machine import MachineConfig, Ultracomputer
    from ..core.memory_ops import FetchAdd

    config = MachineConfig.from_dict(params["machine"])
    rounds = params.get("rounds", 4)
    delays = start_delays(params["seed"], config.n_pes)
    machine = Ultracomputer(config)

    def program(pe_id, delay):
        if delay:
            yield delay
        for _ in range(rounds):
            yield FetchAdd(0, 1)

    for pe in range(config.n_pes):
        machine.spawn(program, delays[pe])
    return machine


@point_function("machine.hotspot")
def machine_hotspot(params: dict) -> dict[str, Any]:
    """One hot-spot run: every PE fetch-and-adds one cell.

    ``params["machine"]`` is a full :class:`MachineConfig` dict (so
    combining, kernel, instrumentation, and tracing are all sweepable);
    the payload is the run's ``RunResult.to_dict()``.
    """
    machine = build_hotspot_machine(params)
    return machine.run().to_dict()


def hotspot_spec(
    pes: int = 16,
    *,
    rounds: int = 4,
    combining_values: Sequence[bool] = (True, False),
    seed: int = 0,
    instrument: bool = True,
    trace_capacity: int = 0,
    kernel: str = "dense",
) -> ExperimentSpec:
    """The combining ablation: the same hot spot with and without
    combining switches (plus any further machine-field axes callers
    tack on)."""
    from ..core.machine import MachineConfig

    machine = MachineConfig(
        n_pes=pes,
        instrument=instrument,
        trace_capacity=trace_capacity,
        kernel=kernel,
    )
    return ExperimentSpec(
        experiment="machine.hotspot",
        base={"rounds": rounds},
        axes=(SweepAxis("machine.combining", tuple(combining_values)),),
        machine=machine,
        seed=seed,
        label=f"hot-spot combining ablation ({pes} PEs x {rounds} rounds)",
    )


@point_function("machine.demo")
def machine_demo(params: dict) -> dict[str, Any]:
    """The quickstart story: PEs claiming tickets from one counter."""
    from ..core.machine import MachineConfig, Ultracomputer
    from ..core.memory_ops import FetchAdd

    pes = params["pes"]
    tickets = params.get("tickets", 4)
    delays = start_delays(params["seed"], pes)
    machine = Ultracomputer(
        MachineConfig(n_pes=pes, kernel=params.get("kernel", "dense"))
    )

    def ticket_taker(pe_id, delay):
        if delay:
            yield delay
        claimed = []
        for _ in range(tickets):
            claimed.append((yield FetchAdd(0, 1)))
        return claimed

    for pe in range(pes):
        machine.spawn(ticket_taker, delays[pe])
    result = machine.run()
    payload = result.to_dict()
    payload["final_counter"] = machine.peek(0)
    return payload


# ----------------------------------------------------------------------
# Observability: the drift monitor and timeline as cacheable points
# ----------------------------------------------------------------------
@point_function("obs.drift")
def obs_drift(params: dict) -> dict[str, Any]:
    """One sim-vs-analytic comparison run (see :mod:`repro.obs.drift`)."""
    from ..obs.drift import measure_drift

    report = measure_drift(
        n_pes=params["pes"],
        rate=params["rate"],
        cycles=params["cycles"],
        k=params.get("k", 2),
        threshold=params.get("threshold", 0.25),
        seed=params["seed"],
        topology=params.get("topology", "omega"),
    )
    return report.to_dict()


def drift_spec(
    *,
    pes: int = 16,
    rates: Sequence[float] = (0.08,),
    cycles: int = 2000,
    k: int = 2,
    threshold: float = 0.25,
    seed: int = 0,
    topology: str = "omega",
) -> ExperimentSpec:
    """The drift-monitor sweep: one comparison run per traffic rate.

    The defaults pin the Figure 7 reference point (k=2, d=1 at low
    load) that CI asserts stays under threshold.
    """
    base: dict[str, Any] = {
        "pes": pes, "cycles": cycles, "k": k, "threshold": threshold,
    }
    # Only widen the base dict off the default so every pre-existing
    # Omega spec keeps its content address (and thus its cache entries).
    if topology != "omega":
        base["topology"] = topology
    return ExperimentSpec(
        experiment="obs.drift",
        base=base,
        axes=(SweepAxis("rate", tuple(rates)),),
        seed=seed,
        label=f"analytic drift monitor ({pes} PEs, k={k}, {topology})",
    )


@point_function("obs.timeline")
def obs_timeline(params: dict) -> dict[str, Any]:
    """One windowed time series over a synthetic-traffic run."""
    from ..core.machine import MachineConfig, Ultracomputer
    from ..obs.timeline import collect_timeline
    from ..workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

    machine = Ultracomputer(MachineConfig(
        n_pes=params["pes"], k=params.get("k", 2)
    ))
    driver = SyntheticTrafficDriver(machine, TrafficSpec(
        rate=params["rate"],
        pattern=params.get("pattern", "uniform"),
        seed=params["seed"],
    ))
    machine.attach_driver(driver)
    timeline = collect_timeline(
        machine, cycles=params["cycles"], window=params["window"]
    )
    return timeline.to_dict()


def timeline_spec(
    *,
    pes: int = 16,
    rate: float = 0.2,
    pattern: str = "uniform",
    cycles: int = 2000,
    window: int = 100,
    k: int = 2,
    seed: int = 0,
) -> ExperimentSpec:
    """A single-point timeline sweep (cacheable ``repro timeline`` run)."""
    return ExperimentSpec(
        experiment="obs.timeline",
        base={
            "pes": pes, "cycles": cycles, "window": window,
            "k": k, "pattern": pattern,
        },
        axes=(SweepAxis("rate", (rate,)),),
        seed=seed,
        label=f"timeline: {pattern} traffic at p={rate} ({pes} PEs)",
    )


# ----------------------------------------------------------------------
# Scaling studies: the WASHCLOTH harness grid as a sweep
# ----------------------------------------------------------------------
@point_function("scaling.point")
def scaling_point(params: dict) -> dict[str, Any]:
    from ..apps.harness import resolve_workload, run_point

    factory = resolve_workload(params["workload"])
    point = run_point(
        factory,
        params["processors"],
        params["size"],
        seed=params["seed"],
        max_cycles=params.get("max_cycles", 10_000_000),
    )
    return {
        "processors": point.processors,
        "size": point.size,
        "cycles": point.cycles,
        "ops_issued": point.ops_issued,
    }


def scaling_spec(
    workload: str,
    processor_counts: Sequence[int],
    sizes: Sequence[int],
    *,
    seed: int = 0,
    max_cycles: int = 10_000_000,
) -> ExperimentSpec:
    """A T(P, size) measurement grid for a *registered* workload name
    (see :func:`repro.apps.harness.register_workload`)."""
    return ExperimentSpec(
        experiment="scaling.point",
        base={"workload": workload, "max_cycles": max_cycles},
        axes=(
            SweepAxis("size", tuple(sizes)),
            SweepAxis("processors", tuple(processor_counts)),
        ),
        seed=seed,
        label=f"scaling study: {workload}",
    )


# ----------------------------------------------------------------------
# Serving-tier scaffolding: tiny point functions with controllable cost
# ----------------------------------------------------------------------
# These exist for the serve test pyramid and the load generator: they
# must live here (not in a test module) so freshly spawned pool workers
# can resolve them through the registry's built-in import.
@point_function("debug.echo")
def debug_echo(params: dict) -> dict[str, Any]:
    """Return the parameters untouched — the zero-cost serving probe."""
    return {"echo": params}


@point_function("debug.sleep")
def debug_sleep(params: dict) -> dict[str, Any]:
    """Hold a worker for ``seconds`` — a controllable service time.

    The serve tests use this to keep a computation in flight while a
    batch of identical requests piles onto the pending table.
    """
    import time as _time

    seconds = float(params.get("seconds", 0.05))
    _time.sleep(seconds)
    return {"slept": seconds, "value": params.get("value")}


@point_function("debug.crash")
def debug_crash(params: dict) -> dict[str, Any]:
    """Kill the worker process outright (fault-injection probe).

    ``os._exit`` skips every cleanup handler, which is exactly the
    shape of a segfault/OOM-kill from the pool's point of view.
    """
    import os as _os

    _os._exit(int(params.get("code", 3)))


@point_function("debug.crash_once")
def debug_crash_once(params: dict) -> dict[str, Any]:
    """Kill the worker the *first* time this point runs, succeed after.

    A ``marker`` file records the first attempt; the attempt that finds
    it completes normally.  This is the lease-recovery probe: the first
    claimant of the point's block dies mid-lease, and the sweep only
    finishes if another worker detects the expired lease and steals the
    block.
    """
    import os as _os

    marker = params["marker"]
    try:
        fd = _os.open(marker, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
    except FileExistsError:
        return {"survived": True, "value": params.get("value")}
    _os.close(fd)
    _os._exit(int(params.get("code", 3)))


@point_function("debug.heartbeat_crash_once")
def debug_heartbeat_crash_once(params: dict) -> dict[str, Any]:
    """Heartbeat for ``delay`` seconds, then SIGKILL — once.

    Like ``debug.crash_once`` but the first victim lingers past at
    least one lease-heartbeat interval before dying, so its event log
    ends with a ``heartbeat`` for the doomed block.  The flight-recorder
    tests use this to assert the crash dump preserves the victim's last
    heartbeat alongside the subsequent steal.
    """
    import os as _os
    import signal as _signal
    import time as _time

    marker = params["marker"]
    try:
        fd = _os.open(marker, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
    except FileExistsError:
        return {"survived": True, "value": params.get("value")}
    _os.close(fd)
    _time.sleep(float(params.get("delay", 0.6)))
    _os.kill(_os.getpid(), _signal.SIGKILL)
    raise AssertionError("unreachable")  # pragma: no cover


@point_function("bench.spin")
def bench_spin(params: dict) -> dict[str, Any]:
    """Burn a deterministic amount of CPU — the scaling-benchmark point.

    A linear-congruential loop: pure integer arithmetic, no
    allocation, no I/O, and a result that depends on every iteration,
    so the interpreter cannot skip work and the payload is reproducible
    bit-for-bit on every backend.
    """
    iters = int(params.get("iters", 1000))
    value = int(params.get("value", 0))
    acc = (value * 2654435761 + 1) % 4294967296
    for _ in range(iters):
        acc = (acc * 1664525 + 1013904223) % 4294967296
    return {"value": value, "iters": iters, "acc": acc}
