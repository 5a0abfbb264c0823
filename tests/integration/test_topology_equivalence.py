"""Differential regression: topologies are fabrics, kernels stay invisible.

Two guarantees at once.  First, the dense, event and batch kernels must
remain pure schedules on *every* fabric: for any workload on the
hypercube or mesh, ``RunResult.to_dict()`` — cycles, combines, per-PE
outcomes, the instrumentation snapshot, and the cycle trace — must be
bit-identical to the every-component loop, the test-only eager kernel
(``tests/eager_kernel.py``).  The batch runs go through both of its
message paths: one message at a time (the default at these sizes) and
every stage step vectorized.  Second, the machine itself must behave on
the new fabrics: combining fires on hotspot traffic and fetch-and-add
totals are exact.
"""

from __future__ import annotations

import functools
import random

import pytest
from eager_kernel import EAGER, eager_kernel

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store

TOPOLOGIES = ["hypercube", "mesh"]
GRID_N_PES = [4, 16]
ROUNDS = 5


def hotspot_program(pe_id, rounds=ROUNDS, seed=0):
    rng = random.Random((seed << 16) | pe_id)
    total = 0
    for _ in range(rounds):
        yield rng.randrange(1, 40)
        total += yield FetchAdd(0, 1)
    return total


def uniform_program(pe_id, rounds=ROUNDS, seed=0):
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


#: kernels checked against the eager oracle; "batch-vector" is the
#: batch kernel with every stage step forced through its vectorized path
KERNELS = ["dense", "event", "batch", "batch-vector"]


@pytest.fixture(autouse=True, scope="module")
def _eager_oracle():
    with eager_kernel():
        yield


def _run(topology, n_pes, kernel, pattern, seed, **overrides):
    vectorized = kernel == "batch-vector"
    machine = Ultracomputer(MachineConfig(
        n_pes=n_pes,
        topology=topology,
        kernel="batch" if vectorized else kernel,
        instrument=True,
        trace_capacity=1 << 14,
        **overrides,
    ))
    if vectorized:
        machine.kernel._ensure_state()
        for plane in machine.kernel._states:
            plane.vector_min = 1
    machine.spawn_many(n_pes, PROGRAMS[pattern], ROUNDS, seed)
    return machine.run().to_dict()


@functools.lru_cache(maxsize=None)
def _reference(topology, n_pes, pattern, seed, **overrides):
    """The eager oracle's result of a grid point, run once for all the
    kernels compared against it (callers only compare it)."""
    return _run(topology, n_pes, EAGER, pattern, seed, **overrides)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestKernelEquivalenceOffOmega:
    @pytest.mark.parametrize("n_pes", GRID_N_PES)
    @pytest.mark.parametrize("pattern", ["hotspot", "uniform"])
    def test_event_identical_to_dense(self, topology, kernel, n_pes, pattern):
        dense = _reference(topology, n_pes, pattern, seed=11)
        assert _run(topology, n_pes, kernel, pattern, seed=11) == dense

    def test_identical_with_finite_queues_and_window(self, topology, kernel):
        kwargs = dict(queue_capacity_packets=4, max_outstanding=2)
        dense = _reference(topology, 16, "uniform", seed=5, **kwargs)
        assert _run(topology, 16, kernel, "uniform", seed=5, **kwargs) == dense

    def test_identical_without_combining(self, topology, kernel):
        dense = _reference(topology, 16, "hotspot", seed=3, combining=False)
        assert _run(topology, 16, kernel, "hotspot", seed=3,
                    combining=False) == dense


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestFabricSemantics:
    def test_hotspot_totals_exact_and_combining_fires(self, topology):
        machine = Ultracomputer(MachineConfig(n_pes=16, topology=topology))

        def program(pe_id):
            for _ in range(4):
                yield FetchAdd(0, 1)

        machine.spawn_many(16, program)
        result = machine.run()
        assert machine.peek(0) == 64
        assert result.combines > 0

    def test_combining_ablation_changes_traffic_not_results(self, topology):
        totals = {}
        for combining in (True, False):
            machine = Ultracomputer(MachineConfig(
                n_pes=16, topology=topology, combining=combining,
            ))

            def program(pe_id):
                values = []
                for _ in range(3):
                    values.append((yield FetchAdd(7, 1)))
                return values

            machine.spawn_many(16, program)
            result = machine.run()
            totals[combining] = machine.peek(7)
            if combining:
                assert result.combines > 0
            else:
                assert result.combines == 0
        assert totals[True] == totals[False] == 48
