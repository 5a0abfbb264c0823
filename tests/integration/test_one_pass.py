"""The batch plane's one-pass direction step, hazard by hazard.

The batch kernel, instrumented or not, moves every sending head of a
direction in one vectorized pass over all stages, unless an offer of
the step could combine, decombine or be refused; such a step walks the
stages in the dense order instead (``_MessagePlane._staged``).  Each
case here forces one hazard kind and checks, on every fabric, that the
run took both paths and that ``RunResult.to_dict()`` is bit-identical
to the every-component oracle (``tests/eager_kernel.py``):

* ``capacity``: queues of 3 packets (one data reply) under heavy
  uniform traffic with combining off, so every hazard is a queue that
  could overflow;
* ``hotspot``: unbounded queues and one burst of fetch-and-adds from
  every PE at once on a few cells (32 PEs a cell), then loads of cells
  of their own, so a forward hazard is a possible combine and a return
  one a wait record;
* ``copies``: the burst with the default queues over two network
  copies, whose planes step (and fall back) independently.

The 256-PE runs keep the default ``vector_min`` (the mesh is 16x16);
the 16-PE ones set it to 1 so that every step with a sender may take
the pass, as the topology grid and the knob fuzz do for the
vectorized path.
"""

from __future__ import annotations

import functools
import random

import pytest
from eager_kernel import EAGER, eager_kernel

import repro.core.batch_kernel as batch_kernel
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

#: offered cycles of open-loop traffic, then the drain bound in steps
OFFERED = 20
DRAIN = 400


def burst_then_loads(pe_id, cells, seed=0):
    """A fetch-and-add on one of ``cells`` hot cells from every PE in
    the same cycle, then a load of a cell of its own."""
    rng = random.Random((seed << 16) | pe_id)
    total = yield FetchAdd(pe_id % cells, 1)
    return total + (yield Load(4096 + rng.randrange(4096)))


CASES = {
    "capacity": (dict(queue_capacity_packets=3, combining=False),
                 TrafficSpec(rate=0.4, pattern="uniform", seed=3)),
    "hotspot": (dict(queue_capacity_packets=None), burst_then_loads),
    "copies": (dict(copies=2), burst_then_loads),
}


@pytest.fixture(autouse=True, scope="module")
def _eager_oracle():
    with eager_kernel():
        yield


def _run(kernel, topology, n_pes, case, vector_min=None):
    knobs, traffic = CASES[case]
    machine = Ultracomputer(MachineConfig(n_pes=n_pes, topology=topology,
                                          kernel=kernel, **knobs))
    if vector_min is not None:
        machine.kernel._ensure_state()
        for plane in machine.kernel._states:
            plane.vector_min = vector_min
    if not isinstance(traffic, TrafficSpec):
        machine.spawn_many(n_pes, traffic, max(1, n_pes // 32))
        return machine.run().to_dict()
    driver = SyntheticTrafficDriver(machine, traffic)
    machine.attach_driver(driver)
    machine.run_cycles(OFFERED)
    driver.drain(DRAIN)
    assert all(pni.outstanding() == 0 for pni in machine.pnis)
    return machine.stats().to_dict()


@functools.lru_cache(maxsize=None)
def _reference(topology, n_pes, case):
    return _run(EAGER, topology, n_pes, case)


def _steps(monkeypatch):
    """Record each ``_one_pass`` attempt as (forward, taken)."""
    steps = []
    one_pass = batch_kernel._MessagePlane._one_pass

    def spy(self, grid, src, cycle):
        taken = one_pass(self, grid, src, cycle)
        steps.append((grid.forward, taken))
        return taken

    monkeypatch.setattr(batch_kernel._MessagePlane, "_one_pass", spy)
    return steps


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("topology", ["omega", "hypercube", "mesh"])
@pytest.mark.parametrize("n_pes, vector_min", [(256, None), (16, 1)])
def test_both_paths_match_the_oracle(monkeypatch, topology, case, n_pes,
                                     vector_min):
    steps = _steps(monkeypatch)
    result = _run("batch", topology, n_pes, case, vector_min)
    assert (True, True) in steps or (False, True) in steps, "no one-pass step"
    # combining is off in ``capacity``, so its refused passes are
    # queues that could fill
    assert (True, False) in steps or (False, False) in steps, "no staged step"
    if case == "hotspot":
        assert (True, False) in steps, "no step with a possible combine"
        assert (False, False) in steps, "no step with a wait record"
        assert result["combines"] > 0
    assert result == _reference(topology, n_pes, case)
