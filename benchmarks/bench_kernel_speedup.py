"""Dense-kernel speedup on the low-offered-load regime of Figure 7.

Figure 7's transit-time study lives in the analytic model, but its
operating regime — many PEs, offered load p well below the network's
capacity bound — is exactly where the every-component cycle loop wastes
its time ticking idle switches and executing quiet cycles.  This
benchmark reruns that regime on the cycle simulator: 64 PEs issuing
uniform loads separated by compute gaps of 1/p cycles, under the eager
loop (``tests/eager_kernel.py``, what the dense kernel was before it
visited only the components that can act and fast-forwarded quiet
cycles) and every kernel.

Two contracts are asserted:

* the kernels are **bit-identical** (``RunResult.to_dict()`` compares
  equal) at every load point;
* the dense kernel is at least **3x faster** than the eager loop in
  simulated cycles per wall-clock second at the lowest offered load.

The batch kernel's speed is reported, not gated.  A second,
report-only test times both kernels on the hypercube and the mesh.
"""

from __future__ import annotations

import random
import time

from bench_utils import banner
from eager_kernel import eager_kernel

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


def test_dense_kernel_speedup_low_load(report):
    with eager_kernel() as eager:
        kernels = (eager, "dense", "batch")
        for kernel in kernels:
            _run(kernel, GAPS[0])  # warm every code path before timing

        lines = [
            banner(f"kernel speedup, Figure 7 low-load regime "
                   f"({N_PES} PEs x {ROUNDS} uniform loads)"),
            f"{'gap':>5} {'p':>7} {'cycles':>8} "
            f"{'eager ms':>9} {'dense ms':>9} "
            f"{'eager cyc/s':>12} {'dense cyc/s':>12} {'speedup':>8} "
            f"{'batch cyc/s':>12} {'batch/eager':>12}",
        ]
        speedups: dict[int, float] = {}
        for gap in GAPS:
            results = {kernel: _run(kernel, gap) for kernel in kernels}
            reference = results[eager][0].to_dict()
            for kernel in kernels[1:]:
                assert results[kernel][0].to_dict() == reference, (
                    f"{kernel} diverged from the eager loop at gap={gap}; "
                    "kernels must be observationally invisible"
                )
            eager_s, dense_s, batch_s = (
                results[kernel][1] for kernel in kernels)
            cycles = results[eager][0].cycles
            speedups[gap] = eager_s / dense_s
            lines.append(
                f"{gap:>5} {1 / gap:>7.4f} {cycles:>8} "
                f"{eager_s * 1e3:>9.1f} {dense_s * 1e3:>9.1f} "
                f"{cycles / eager_s:>12.0f} {cycles / dense_s:>12.0f} "
                f"{speedups[gap]:>7.1f}x "
                f"{cycles / batch_s:>12.0f} {eager_s / batch_s:>11.1f}x"
            )
    lines.append(
        f"lowest load (gap={GAPS[-1]}): {speedups[GAPS[-1]]:.1f}x the eager "
        "loop (acceptance floor: 3x; batch is reported, not gated)"
    )
    report("\n".join(lines))

    assert speedups[GAPS[-1]] >= 3.0, (
        f"dense kernel is only {speedups[GAPS[-1]]:.2f}x faster than the "
        f"eager loop at gap={GAPS[-1]}; the wake sets or the quiet-cycle "
        "fast-forward have regressed"
    )


def test_kernels_per_topology(report):
    """Report-only: both kernels on the direct fabrics, same workload
    at the first gap, results checked bit-identical to dense."""
    lines = [
        banner(f"kernels per fabric ({ROUNDS} uniform loads per PE, "
               f"gap={GAPS[0]})"),
        f"{'fabric':>10} {'PEs':>4} {'cycles':>7} {'dense cyc/s':>12} "
        f"{'batch cyc/s':>12}",
    ]
    for topology in ("hypercube", "mesh"):
        for n_pes in (16, 64):
            rates = {}
            for kernel in ("dense", "batch"):
                _run(kernel, GAPS[0], n_pes, topology)  # warm-up
                result, elapsed = _run(kernel, GAPS[0], n_pes, topology)
                if kernel == "dense":
                    reference = result.to_dict()
                else:
                    assert result.to_dict() == reference, (topology, n_pes, kernel)
                rates[kernel] = result.cycles / elapsed
            lines.append(
                f"{topology:>10} {n_pes:>4} {result.cycles:>7} "
                f"{rates['dense']:>12.0f} {rates['batch']:>12.0f}"
            )
    report("\n".join(lines))
