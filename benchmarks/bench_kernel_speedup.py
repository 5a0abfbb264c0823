"""Event-kernel speedup on the low-offered-load regime of Figure 7.

Figure 7's transit-time study lives in the analytic model, but its
operating regime — many PEs, offered load p well below the network's
capacity bound — is exactly where the dense kernel wastes its time
ticking idle switches.  This benchmark reruns that regime on the cycle
simulator: 64 PEs issuing uniform loads separated by compute gaps of
1/p cycles, under both kernels.

Two contracts are asserted, matching the tentpole's acceptance
criteria:

* the kernels are **bit-identical** (``RunResult.to_dict()`` compares
  equal) at every load point;
* the event kernel is at least **3x faster** in simulated cycles per
  wall-clock second at the lowest offered load.

The batch kernel runs the same points; its speed is reported, not
gated.  A second, report-only test times all three kernels on the
hypercube and the mesh.
"""

from __future__ import annotations

import random
import time

from bench_utils import banner

from repro import Load, MachineConfig, Ultracomputer

N_PES = 64
ROUNDS = 24
#: compute gap between references, per PE; offered load p ~= 1/gap.
GAPS = [16, 64, 256]


def _program(pe_id, gap, seed=0):
    rng = random.Random((seed << 20) | pe_id)
    for _ in range(ROUNDS):
        yield gap
        yield Load(rng.randrange(0, 64 * N_PES))


def _run(kernel: str, gap: int, n_pes: int = N_PES, topology: str = "omega"):
    machine = Ultracomputer(MachineConfig(n_pes=n_pes, kernel=kernel,
                                          topology=topology))
    machine.spawn_many(n_pes, _program, gap)
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_event_kernel_speedup_low_load(report):
    for kernel in ("dense", "event", "batch"):
        _run(kernel, GAPS[0])  # warm every code path before timing

    lines = [
        banner(f"kernel speedup, Figure 7 low-load regime "
               f"({N_PES} PEs x {ROUNDS} uniform loads)"),
        f"{'gap':>5} {'p':>7} {'cycles':>8} "
        f"{'dense ms':>9} {'event ms':>9} "
        f"{'dense cyc/s':>12} {'event cyc/s':>12} {'speedup':>8} "
        f"{'batch cyc/s':>12} {'batch/dense':>12}",
    ]
    speedups: dict[int, float] = {}
    for gap in GAPS:
        dense_result, dense_s = _run("dense", gap)
        event_result, event_s = _run("event", gap)
        batch_result, batch_s = _run("batch", gap)
        assert dense_result.to_dict() == event_result.to_dict(), (
            f"kernels diverged at gap={gap}; the event kernel must be "
            "observationally invisible"
        )
        assert dense_result.to_dict() == batch_result.to_dict(), (
            f"the batch kernel diverged from dense at gap={gap}"
        )
        cycles = dense_result.cycles
        speedups[gap] = dense_s / event_s
        lines.append(
            f"{gap:>5} {1 / gap:>7.4f} {cycles:>8} "
            f"{dense_s * 1e3:>9.1f} {event_s * 1e3:>9.1f} "
            f"{cycles / dense_s:>12.0f} {cycles / event_s:>12.0f} "
            f"{speedups[gap]:>7.1f}x "
            f"{cycles / batch_s:>12.0f} {dense_s / batch_s:>11.1f}x"
        )
    lines.append(
        f"lowest load (gap={GAPS[-1]}): {speedups[GAPS[-1]]:.1f}x "
        "(acceptance floor: 3x; batch is reported, not gated)"
    )
    report("\n".join(lines))

    assert speedups[GAPS[-1]] >= 3.0, (
        f"event kernel is only {speedups[GAPS[-1]]:.2f}x faster than dense "
        f"at gap={GAPS[-1]}; the wake-list machinery has regressed"
    )


def test_kernels_per_topology(report):
    """Report-only: every kernel on the direct fabrics, same workload
    at the first gap, results checked bit-identical to dense."""
    lines = [
        banner(f"kernels per fabric ({ROUNDS} uniform loads per PE, "
               f"gap={GAPS[0]})"),
        f"{'fabric':>10} {'PEs':>4} {'cycles':>7} {'dense cyc/s':>12} "
        f"{'event cyc/s':>12} {'batch cyc/s':>12}",
    ]
    for topology in ("hypercube", "mesh"):
        for n_pes in (16, 64):
            rates = {}
            for kernel in ("dense", "event", "batch"):
                _run(kernel, GAPS[0], n_pes, topology)  # warm-up
                result, elapsed = _run(kernel, GAPS[0], n_pes, topology)
                if kernel == "dense":
                    reference = result.to_dict()
                else:
                    assert result.to_dict() == reference, (topology, n_pes, kernel)
                rates[kernel] = result.cycles / elapsed
            lines.append(
                f"{topology:>10} {n_pes:>4} {result.cycles:>7} "
                f"{rates['dense']:>12.0f} {rates['event']:>12.0f} "
                f"{rates['batch']:>12.0f}"
            )
    report("\n".join(lines))
