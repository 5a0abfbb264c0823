"""Hot-path throughput: simulated cycles per second on every kernel.

The data-plane flattening (slotted hot-path classes, interned op forms,
zero-alloc routing) is a pure host-side optimisation — the simulated
machine must be bit-identical — so this benchmark measures what it is
allowed to change: wall-clock throughput.  The workload is 32 PEs at
moderate offered load (compute gap 4, p ~= 0.25) with a 25% hot-spot
fetch-and-add mix, exercising combining, decombining, and the wait
buffers on every round.

Raw cycles/sec depends on the host, so the numbers are normalised by a
small pure-Python calibration loop (integer adds) timed in the same
process, immediately before each kernel's timed repeats:
``normalized = cycles_per_sec / calibration_ops_per_sec`` is a
dimensionless host-independent figure, and calibrating per kernel
keeps a swing in the host's speed between kernels out of it.  Three
contracts are asserted:

* the kernels remain **bit-identical** on this workload;
* the dense kernel is at least **1.5x** the pre-refactor normalised
  throughput recorded in the committed baseline;
* no kernel regresses more than **20%** below the committed baseline
  (``BENCH_hotpath.json`` at the repo root).

A second section runs the batch kernel at its design point — 1024 PEs
of synchronized barrier rounds — and asserts the tentpole's acceptance
floor: at least **10x** the simulated cycles per second of the
every-component loop (the eager kernel of ``tests/eager_kernel.py``,
which the dense kernel was before it visited only the components that
can act) on the same workload.  The eager loop is sampled over a
representative window (running it to completion would take most of a
minute for no extra information); the dense kernel runs the same window
and its ratio is reported beside the gate.

A third section runs open-loop traffic at 1024 PEs — the Figure 7
shape: Bernoulli(0.05) uniform offers from the synthetic driver, then a
drain one ``step()`` at a time — on batch, on the eager loop and on
dense, checks them bit-identical, and asserts batch's speedup over the
eager loop against the floor recorded in ``BENCH_hotpath.json``
(``open_loop.speedup_floor``); batch's ratio to dense is reported.
That path runs the batch kernel's endpoints (phase 3, the memory side,
the exits to the PNIs) and its sync-on-read object view, which the
barrier section barely touches.

Set ``REPRO_HOTPATH_JSON=<path>`` to write the measured figures as a
JSON artifact; pointing it at ``BENCH_hotpath.json`` regenerates the
baseline (the ``pre_refactor`` block is preserved from the old file).
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from bench_utils import banner, calibrate
from eager_kernel import eager_kernel

from repro import FetchAdd, Load, MachineConfig, Ultracomputer
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

N_PES = 32
ROUNDS = 40
GAP = 4  # moderate offered load: p ~= 0.25
HOTSPOT_FRACTION = 0.25
REPEATS = 5  # best-of, to shave scheduler noise
KERNELS = ("dense", "event", "batch")

#: the batch kernel's design point: synchronized barrier rounds at 1024
#: PEs (the paper's coordination pattern — every PE fetch-and-adds the
#: same cell, separated by a fixed compute phase).
LARGE_N_PES = 1024
LARGE_ROUNDS = 6
LARGE_GAP = 500
#: sampling window of the eager loop and dense: one full compute phase
#: plus one barrier burst.
LARGE_SAMPLE_CYCLES = 600
#: tentpole acceptance floor: batch >= 10x the eager loop's cycles/sec at
#: 1024 PEs.
LARGE_SPEEDUP_FLOOR = 10.0

#: open-loop traffic at 1024 PEs: offered cycles at the rate, then a
#: drain of at most four times as many single steps
OPEN_RATE = 0.05
OPEN_CYCLES = 60

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
#: committed baseline tolerance: fail on a >20% normalised regression.
REGRESSION_TOLERANCE = 0.20
#: acceptance floor vs the pre-refactor snapshot in the baseline file.
SPEEDUP_FLOOR = 1.5


def _program(pe_id, seed=0):
    rng = random.Random((seed << 20) | pe_id)
    for _ in range(ROUNDS):
        yield GAP
        if rng.random() < HOTSPOT_FRACTION:
            yield FetchAdd(0, 1)  # hot-spot: exercises combining
        else:
            yield Load(rng.randrange(0, 64 * N_PES))


def _run(kernel: str):
    machine = Ultracomputer(MachineConfig(n_pes=N_PES, kernel=kernel))
    machine.spawn_many(N_PES, _program)
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _measure() -> dict:
    for kernel in KERNELS:  # warm every code path before timing
        _run(kernel)
    measured: dict = {
        "workload": {
            "n_pes": N_PES,
            "rounds": ROUNDS,
            "gap": GAP,
            "hotspot_fraction": HOTSPOT_FRACTION,
        },
    }
    dicts = {}
    for kernel in KERNELS:
        calibration = calibrate()
        best = 0.0
        cycles = 0
        for _ in range(REPEATS):
            result, elapsed = _run(kernel)
            cycles = result.cycles
            best = max(best, cycles / elapsed)
        dicts[kernel] = result.to_dict()
        measured[kernel] = {
            "cycles": cycles,
            "cycles_per_sec": round(best),
            "calibration_ops_per_sec": round(calibration),
            "normalized": round(best / calibration, 6),
        }
    for kernel in KERNELS[1:]:
        assert dicts["dense"] == dicts[kernel], (
            f"{kernel} kernel diverged from dense on the hot-path "
            "workload; optimised kernels must be observationally invisible"
        )
    return measured


def test_hot_path_throughput(report):
    baseline = json.loads(BASELINE_PATH.read_text())
    measured = _measure()
    measured["pre_refactor"] = baseline["pre_refactor"]
    measured["open_loop"] = baseline["open_loop"]

    out = os.environ.get("REPRO_HOTPATH_JSON")
    if out:
        Path(out).write_text(json.dumps(measured, indent=2) + "\n")

    lines = [
        banner(f"hot-path throughput ({N_PES} PEs, gap {GAP}, "
               f"{HOTSPOT_FRACTION:.0%} hot-spot F&A)"),
        f"{'kernel':>7} {'cycles':>7} {'cyc/s':>9} {'norm':>9} "
        f"{'baseline':>9} {'vs pre':>7}",
    ]
    pre = baseline["pre_refactor"]
    for kernel in KERNELS:
        norm = measured[kernel]["normalized"]
        base_norm = baseline.get(kernel, {}).get("normalized", norm)
        # Kernels younger than the pre-refactor snapshot (batch) are
        # compared against its dense figure.
        speedup = norm / pre.get(f"{kernel}_normalized",
                                 pre["dense_normalized"])
        lines.append(
            f"{kernel:>7} {measured[kernel]['cycles']:>7} "
            f"{measured[kernel]['cycles_per_sec']:>9} {norm:>9.6f} "
            f"{base_norm:>9.6f} {speedup:>6.2f}x"
        )
    report("\n".join(lines))

    dense_speedup = (
        measured["dense"]["normalized"] / pre["dense_normalized"]
    )
    assert dense_speedup >= SPEEDUP_FLOOR, (
        f"dense kernel is only {dense_speedup:.2f}x the pre-refactor "
        f"normalised throughput (floor: {SPEEDUP_FLOOR}x)"
    )
    for kernel in KERNELS:
        if kernel not in baseline:
            continue  # first run after adding a kernel; regen baseline
        norm = measured[kernel]["normalized"]
        floor = baseline[kernel]["normalized"] * (1 - REGRESSION_TOLERANCE)
        assert norm >= floor, (
            f"{kernel} kernel normalised throughput {norm:.6f} regressed "
            f">{REGRESSION_TOLERANCE:.0%} below the committed baseline "
            f"{baseline[kernel]['normalized']:.6f}; rerun with "
            "REPRO_HOTPATH_JSON=BENCH_hotpath.json if intentional"
        )


# ----------------------------------------------------------------------
# The batch kernel's design point: 1024 PEs of barrier rounds
# ----------------------------------------------------------------------
def _barrier_program(pe_id):
    total = 0
    for _ in range(LARGE_ROUNDS):
        yield LARGE_GAP
        total += yield FetchAdd(0, 1)
    return total


def _barrier_window(kernel: str):
    """The first sample window of the barrier rounds on ``kernel``:
    its result and simulated cycles per second."""
    machine = Ultracomputer(MachineConfig(n_pes=LARGE_N_PES, kernel=kernel))
    machine.spawn_many(LARGE_N_PES, _barrier_program)
    start = time.perf_counter()
    window = machine.run_cycles(LARGE_SAMPLE_CYCLES)
    return window, LARGE_SAMPLE_CYCLES / (time.perf_counter() - start)


def test_batch_kernel_large_machine(report):
    # Warm the batch code path (numpy import, state construction).
    warm = Ultracomputer(MachineConfig(n_pes=LARGE_N_PES, kernel="batch"))
    warm.spawn_many(LARGE_N_PES, _barrier_program)
    warm.run_cycles(LARGE_SAMPLE_CYCLES)

    # The eager loop's per-cycle cost is flat (every switch ticks every
    # cycle), so one compute phase + one barrier burst is representative
    # of the full run.  Dense runs the same window, for the report.
    with eager_kernel() as eager:
        window, eager_cps = _barrier_window(eager)
    dense_window, dense_cps = _barrier_window("dense")
    assert dense_window.to_dict() == window.to_dict(), (
        "dense kernel diverged from the eager loop at 1024 PEs"
    )

    # Batch runs the same window (checked bit-identical), then is timed
    # over the rest of the run — rounds 2..6 plus the drain, the same
    # phase mix the window saw.
    batch = Ultracomputer(MachineConfig(n_pes=LARGE_N_PES, kernel="batch"))
    batch.spawn_many(LARGE_N_PES, _barrier_program)
    parity = batch.run_cycles(LARGE_SAMPLE_CYCLES)
    assert parity.to_dict() == window.to_dict(), (
        "batch kernel diverged from the eager loop at 1024 PEs"
    )
    start = time.perf_counter()
    result = batch.run()
    batch_cps = (
        (result.cycles - LARGE_SAMPLE_CYCLES)
        / (time.perf_counter() - start)
    )

    speedup = batch_cps / eager_cps
    combining_rate = result.combining_rate
    report("\n".join([
        banner(f"batch kernel at its design point ({LARGE_N_PES} PEs x "
               f"{LARGE_ROUNDS} barrier rounds, gap {LARGE_GAP})"),
        f"{'kernel':>7} {'cycles':>7} {'cyc/s':>9}",
        f"{'eager':>7} {LARGE_SAMPLE_CYCLES:>7} {eager_cps:>9.0f}  (sampled window)",
        f"{'dense':>7} {LARGE_SAMPLE_CYCLES:>7} {dense_cps:>9.0f}  (sampled window)",
        f"{'batch':>7} {result.cycles:>7} {batch_cps:>9.0f}",
        f"speedup: {speedup:.1f}x the eager loop (acceptance floor: "
        f"{LARGE_SPEEDUP_FLOOR:.0f}x), {batch_cps / dense_cps:.1f}x dense; "
        f"combining rate {combining_rate:.1%} of {result.requests_issued} "
        "requests",
    ]))

    assert all(r.finished for r in result.per_pe.values())
    assert result.requests_issued == LARGE_N_PES * LARGE_ROUNDS
    assert combining_rate > 0.9, (
        "synchronized barrier rounds should combine almost completely"
    )
    assert speedup >= LARGE_SPEEDUP_FLOOR, (
        f"batch kernel is only {speedup:.1f}x the eager loop at "
        f"{LARGE_N_PES} PEs (floor: {LARGE_SPEEDUP_FLOOR:.0f}x)"
    )


# ----------------------------------------------------------------------
# Open-loop traffic at 1024 PEs (the Figure 7 shape)
# ----------------------------------------------------------------------
def _open_loop(kernel: str):
    """Offer uniform traffic, then drain; returns the result, the
    driver's statistics and the wall time of the simulation."""
    machine = Ultracomputer(MachineConfig(n_pes=LARGE_N_PES, kernel=kernel))
    driver = SyntheticTrafficDriver(
        machine, TrafficSpec(rate=OPEN_RATE, pattern="uniform", seed=0))
    machine.attach_driver(driver)
    start = time.perf_counter()
    machine.run_cycles(OPEN_CYCLES)
    driver.drain(OPEN_CYCLES * 4)
    elapsed = time.perf_counter() - start
    return machine.stats(), driver.stats(), elapsed


def test_batch_kernel_open_loop(report):
    recorded = json.loads(BASELINE_PATH.read_text())["open_loop"]
    _open_loop("batch")  # warm the batch code path
    with eager_kernel() as eager:
        reference, reference_traffic, eager_s = _open_loop(eager)
    dense, dense_traffic, dense_s = _open_loop("dense")
    best = None
    for _ in range(3):  # best-of, to shave scheduler noise
        result, traffic, elapsed = _open_loop("batch")
        best = elapsed if best is None else min(best, elapsed)
    for name, run, run_traffic in (("batch", result, traffic),
                                   ("dense", dense, dense_traffic)):
        assert run.to_dict() == reference.to_dict(), (
            f"{name} kernel diverged from the eager loop on open-loop traffic")
        assert run_traffic == reference_traffic
    assert traffic.completed == traffic.issued > 0
    eager_cps = reference.cycles / eager_s
    dense_cps = dense.cycles / dense_s
    batch_cps = result.cycles / best
    speedup = batch_cps / eager_cps
    floor = recorded["speedup_floor"]
    report("\n".join([
        banner(f"open-loop traffic at {LARGE_N_PES} PEs (rate {OPEN_RATE}, "
               f"{OPEN_CYCLES} offered cycles, then a drain)"),
        f"{'kernel':>7} {'cycles':>7} {'cyc/s':>9}",
        f"{'eager':>7} {reference.cycles:>7} {eager_cps:>9.0f}",
        f"{'dense':>7} {dense.cycles:>7} {dense_cps:>9.0f}",
        f"{'batch':>7} {result.cycles:>7} {batch_cps:>9.0f}",
        f"speedup: {speedup:.1f}x the eager loop (floor {floor}x; recorded "
        f"{recorded['speedup']}x), {batch_cps / dense_cps:.1f}x dense",
    ]))
    assert speedup >= floor, (
        f"batch kernel is only {speedup:.1f}x the eager loop on open-loop "
        f"traffic at {LARGE_N_PES} PEs (floor: {floor}x)"
    )
