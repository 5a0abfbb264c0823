"""Differential regression: the kernels' schedules must be invisible.

Every registered kernel — ``dense`` (which visits only the components
that can act and fast-forwards quiet cycles) and ``batch`` — is a
schedule, not a model change: for any workload each
must produce a ``RunResult`` whose ``to_dict()`` — cycles, combines,
per-PE outcomes, the full instrumentation snapshot, and the cycle trace
— is bit-identical to the every-component loop, kept as the test-only
eager kernel (``tests/eager_kernel.py``).  These tests sweep a seeded
grid of machine sizes, traffic shapes, and cache settings and compare
each kernel against that oracle (the test names' "dense" is the dense
semantics the oracle defines); any divergence is a kernel bug by
definition.
"""

from __future__ import annotations

import functools
import random

import pytest
from eager_kernel import EAGER, eager_kernel

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store
from repro.pe.cached import CachedProgramDriver
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

GRID_N_PES = [4, 16, 64]
#: every registered name; "event" is the alias of dense that stays
#: registered for the benchmark's kernel table (repro.core.scheduler)
KERNELS = ["dense", "event", "batch"]
ROUNDS = 6


@pytest.fixture(autouse=True, scope="module")
def _eager_oracle():
    with eager_kernel():
        yield


def hotspot_program(pe_id, rounds=ROUNDS, seed=0):
    """Every PE hammers one cell with fetch-and-adds (combining-heavy),
    interleaved with seeded compute gaps so the kernels actually
    fast-forward."""
    rng = random.Random((seed << 16) | pe_id)
    total = 0
    for _ in range(rounds):
        yield rng.randrange(1, 40)
        total += yield FetchAdd(0, 1)
    return total


def uniform_program(pe_id, rounds=ROUNDS, seed=0):
    """Seeded uniform load/store traffic with private accumulators."""
    rng = random.Random((seed << 16) | (pe_id + 1))
    base = 4096 + pe_id * 64
    acc = 0
    for i in range(rounds):
        yield rng.randrange(1, 25)
        yield Store(base + (i % 8), acc + i)
        acc += yield Load(base + (i % 8))
        acc += yield FetchAdd(rng.randrange(256, 512), pe_id + 1)
    return acc


PROGRAMS = {"hotspot": hotspot_program, "uniform": uniform_program}


def _machine(n_pes: int, kernel: str, **overrides) -> Ultracomputer:
    config = MachineConfig(
        n_pes=n_pes,
        kernel=kernel,
        instrument=True,
        trace_capacity=1 << 14,
        **overrides,
    )
    return Ultracomputer(config)


def _run_programs(n_pes: int, kernel: str, pattern: str, seed: int, **overrides):
    machine = _machine(n_pes, kernel, **overrides)
    machine.spawn_many(n_pes, PROGRAMS[pattern], ROUNDS, seed)
    result = machine.run().to_dict()
    # a kernel that ends its run early would leave traffic behind
    assert machine.quiescent()
    return result


@functools.lru_cache(maxsize=None)
def _reference(runner, n_pes: int, pattern: str, seed: int, **overrides):
    """The eager oracle's result of a grid point, run once for all the
    kernels compared against it (callers only compare it)."""
    return runner(n_pes, EAGER, pattern, seed, **overrides)


def _run_cached(n_pes: int, kernel: str, pattern: str, seed: int):
    machine = _machine(n_pes, kernel)
    driver = CachedProgramDriver(machine, cache_lines=4)
    driver.spawn_many(n_pes, PROGRAMS[pattern], ROUNDS, seed)
    machine.attach_driver(driver)
    result = machine.run().to_dict()
    assert machine.quiescent()
    # Cache-side outcomes are not part of RunResult; fold them in so the
    # comparison also pins hit counts and per-PE return values.
    result["_cache"] = {
        "network_refs": driver.total_network_refs,
        "cache_hits": driver.total_cache_hits,
        "return_values": sorted(driver.return_values.items()),
    }
    return result


@pytest.mark.parametrize("kernel", KERNELS)
class TestUncachedGrid:
    @pytest.mark.parametrize("n_pes", GRID_N_PES)
    @pytest.mark.parametrize("pattern", ["hotspot", "uniform"])
    def test_identical_to_dense(self, kernel, n_pes, pattern):
        dense = _reference(_run_programs, n_pes, pattern, seed=11)
        other = _run_programs(n_pes, kernel, pattern, seed=11)
        assert dense == other

    @pytest.mark.parametrize("n_pes", [4, 16])
    def test_identical_with_finite_queues_and_window(self, kernel, n_pes):
        kwargs = dict(queue_capacity_packets=4, max_outstanding=2)
        dense = _reference(_run_programs, n_pes, "uniform", seed=5, **kwargs)
        other = _run_programs(n_pes, kernel, "uniform", seed=5, **kwargs)
        assert dense == other

    def test_identical_across_network_copies(self, kernel):
        dense = _reference(_run_programs, 16, "hotspot", seed=9, copies=2)
        other = _run_programs(16, kernel, "hotspot", seed=9, copies=2)
        assert dense == other


@pytest.mark.parametrize("kernel", KERNELS)
class TestCachedGrid:
    @pytest.mark.parametrize("n_pes", GRID_N_PES)
    @pytest.mark.parametrize("pattern", ["hotspot", "uniform"])
    def test_identical_to_dense(self, kernel, n_pes, pattern):
        dense = _reference(_run_cached, n_pes, pattern, seed=23)
        other = _run_cached(n_pes, kernel, pattern, seed=23)
        assert dense == other


class TestOpenLoopTraffic:
    """Stochastic open-loop drivers have no wake contract: the
    fast-forwarding kernels must fall back to executing every cycle,
    keeping the RNG draw sequence — and therefore everything downstream
    — identical."""

    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("pattern", ["uniform", "hotspot"])
    def test_run_cycles_identical(self, kernel, pattern, copies):
        """With two copies this pins the instrumented phase-3 order:
        each copy takes its heads in one call, a copy at a time, and
        their trace events are held until the phase ends, then recorded
        in PE order across the copies."""
        results = []
        for name in (EAGER, kernel):
            machine = _machine(16, name, copies=copies)
            machine.attach_driver(
                SyntheticTrafficDriver(
                    machine, TrafficSpec(rate=0.05, pattern=pattern, seed=7)
                )
            )
            results.append(machine.run_cycles(400).to_dict())
        assert results[0] == results[1]


class TestTraceOverflow:
    """A trace ring too small for the run keeps the newest events and
    counts the rest as dropped.  The batch kernel appends each step's
    events in dense's order, so the kept suffix and the drop count are
    the oracle's, whether its offers go one at a time or, forced, all
    on the vectorized path."""

    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("kernel", ["dense", "batch", "batch-vector"])
    def test_kept_suffix_and_dropped_identical(self, kernel, copies):
        results = []
        for name in (EAGER, kernel):
            machine = Ultracomputer(MachineConfig(
                n_pes=64, kernel=name.removesuffix("-vector"), copies=copies,
                instrument=True, trace_capacity=500))
            if name == "batch-vector":
                machine.kernel._ensure_state()
                for plane in machine.kernel._states:
                    plane.vector_min = 1
            machine.spawn_many(64, hotspot_program, ROUNDS, 3)
            results.append(machine.run().to_dict())
        assert results[0]["trace_dropped"] > 0
        assert len(results[0]["trace"]) == 500
        assert results[0] == results[1]


class TestTimeoutParity:
    def test_same_timeout_error_and_counters(self):
        def stuck(pe_id):
            yield 10_000  # still computing at the deadline
            yield FetchAdd(0, 1)

        messages = []
        counters = []
        for kernel in (EAGER, "dense", "batch"):
            machine = _machine(4, kernel)
            machine.spawn_many(4, stuck)
            with pytest.raises(RuntimeError) as excinfo:
                machine.run(max_cycles=500)
            messages.append(str(excinfo.value))
            counters.append((machine.cycle, machine.stats().to_dict()))
        assert messages[0] == messages[1] == messages[2]
        assert counters[0] == counters[1] == counters[2]

    def test_timeout_names_the_oldest_outstanding_request(self):
        """A wedge-shaped timeout (requests still outstanding) names the
        oldest of them: PE, tag, op and issue cycle, the same under
        every kernel."""
        messages = []
        for kernel in (EAGER, "dense", "batch"):
            machine = _machine(16, kernel, copies=2)
            machine.spawn_many(16, hotspot_program, ROUNDS, 4)
            with pytest.raises(RuntimeError) as excinfo:
                machine.run(max_cycles=30)
            messages.append(str(excinfo.value))
            outstanding = [(request.issued_cycle, request.tag, request.origin)
                           for pni in machine.pnis
                           for request in pni._outstanding_tags.values()]
        issued, tag, pe = min(outstanding)
        assert messages[0] == messages[1] == messages[2]
        assert messages[0].endswith(
            f"; oldest outstanding request: PE {pe}, tag {tag}, FetchAdd of "
            f"MM 0 offset 0, issued at cycle {issued}")


def _count_steps(machine: Ultracomputer) -> list[int]:
    """Count the cycles the kernel executes (its ``_step`` calls, which
    the shared run loop makes); returns the one-element counter."""
    steps = [0]
    original_step = machine.kernel._step

    def counting_step():
        steps[0] += 1
        original_step()

    machine.kernel._step = counting_step
    return steps


def low_load_program(pe_id, gap, seed=0):
    """``benchmarks/bench_kernel_speedup.py``'s workload: 24 uniform
    loads over a 64-PE machine's memory, separated by ``gap`` cycles of
    compute."""
    rng = random.Random((seed << 20) | pe_id)
    for _ in range(24):
        yield gap
        yield Load(rng.randrange(0, 64 * 64))


class TestKernelProgress:
    def test_event_kernel_fast_forwards(self):
        """Both kernels (and so ``event``, the alias of dense) must
        actually skip quiet cycles: a workload that is almost all
        compute finishes in the same simulated time while executing far
        fewer real cycles."""

        def mostly_quiet(pe_id):
            for _ in range(3):
                yield 200
                yield FetchAdd(0, 1)

        for kernel in ("dense", "batch"):
            machine = _machine(4, kernel)
            steps = _count_steps(machine)
            machine.spawn_many(4, mostly_quiet)
            result = machine.run()
            assert result.cycles > 600  # simulated time covers the gaps
            assert steps[0] < result.cycles / 3  # but most were skipped

    def test_dense_fast_forwards_the_low_load_workload(self):
        """Pinned: on the speedup benchmark's lowest load (64 PEs, gap
        256, seed 0) dense executes 985 of the run's 6,583 cycles and
        skips the rest, with the eager oracle's result."""
        eager = Ultracomputer(MachineConfig(n_pes=64, kernel=EAGER))
        eager.spawn_many(64, low_load_program, 256)
        reference = eager.run().to_dict()
        machine = Ultracomputer(MachineConfig(n_pes=64, kernel="dense"))
        steps = _count_steps(machine)
        machine.spawn_many(64, low_load_program, 256)
        result = machine.run().to_dict()
        assert result == reference
        assert (steps[0], result["cycles"]) == (985, 6583)
