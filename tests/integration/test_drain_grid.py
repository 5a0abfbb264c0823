"""Every validated configuration drains.

``MachineConfig.validate()`` rejects the knob values that can never
finish (switch queues and MNI inbound buffers smaller than a message
that carries data).  This grid checks the other side: every
configuration it accepts drains.  It runs 16-PE machines over

* topology {omega, hypercube, mesh} × switch queue {3, 4, ∞} packets ×
  wait buffer {0, 1, ∞} records × MNI inbound {3, ∞} packets × window
  (``max_outstanding``) {1, ∞} × copies {1, 2} × kernel {dense, batch}
  × 4 programs (1,728 cases), and
* k = 4, hashed translation and ``pairwise_only=False``, each over
  queue × wait buffer × kernel × program (72 cases each).

Each run must quiesce within :data:`BOUND` cycles (the slowest case
takes about 220) with every request answered and memory as the
program's serial semantics leave it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store

N_PES = 16
#: requests per PE
OPS = 4
#: cycles within which every case must drain
BOUND = 1000


def hot_spot(pe_id):
    for _ in range(OPS):
        yield FetchAdd(0, 1)


def loads(pe_id):
    for i in range(OPS):
        yield Load((pe_id * 7 + i) % N_PES)


def stores(pe_id):
    for i in range(OPS):
        yield Store(pe_id + N_PES * i, pe_id + 1)


def mixed(pe_id):
    """F&A and Load on one cell: odd PEs add, even PEs load."""
    for _ in range(OPS):
        yield FetchAdd(0, 1) if pe_id % 2 else Load(0)


def _hot_spot_memory(machine):
    return machine.peek(0) == N_PES * OPS


def _untouched(machine):
    return machine.dump_region(0, N_PES) == [0] * N_PES


def _stored(machine):
    return machine.dump_region(0, N_PES * OPS) == [
        (cell % N_PES) + 1 for cell in range(N_PES * OPS)]


def _mixed_memory(machine):
    return machine.peek(0) == N_PES // 2 * OPS


#: program -> the memory check it must pass after the run
PROGRAMS = {
    hot_spot: _hot_spot_memory,
    loads: _untouched,
    stores: _stored,
    mixed: _mixed_memory,
}

QUEUES = [3, 4, None]
WAIT_BUFFERS = [0, 1, None]
KERNELS = ["dense", "batch"]


#: short names of the knobs in test ids
_SHORT = {"queue_capacity_packets": "q", "wait_buffer_capacity": "w",
          "mni_inbound_capacity_packets": "mni", "max_outstanding": "win",
          "copies": "copies", "k": "k", "pairwise_only": "pairwise"}


def _case_id(knobs):
    return "-".join(str(value) if name in ("topology", "translation")
                    else f"{_SHORT[name]}{value}"
                    for name, value in knobs.items())


def _grid():
    for topology, queue, wait, mni, window, copies in itertools.product(
            ["omega", "hypercube", "mesh"], QUEUES, WAIT_BUFFERS, [3, None],
            [1, None], [1, 2]):
        yield dict(topology=topology, queue_capacity_packets=queue,
                   wait_buffer_capacity=wait, mni_inbound_capacity_packets=mni,
                   max_outstanding=window, copies=copies)
    for extra in (dict(k=4), dict(translation="hashed"),
                  dict(pairwise_only=False)):
        for queue, wait in itertools.product(QUEUES, WAIT_BUFFERS):
            yield dict(extra, queue_capacity_packets=queue,
                       wait_buffer_capacity=wait)


CASES = list(_grid())


@pytest.mark.parametrize("program", list(PROGRAMS), ids=lambda p: p.__name__)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("knobs", CASES, ids=[_case_id(c) for c in CASES])
def test_every_validated_configuration_drains(knobs, kernel, program):
    config = MachineConfig(n_pes=N_PES, kernel=kernel, **knobs)
    config.validate()
    machine = Ultracomputer(config)
    machine.spawn_many(N_PES, program)
    result = machine.run(max_cycles=BOUND)
    assert result.requests_issued == result.replies_received == N_PES * OPS
    assert all(pe.finished_cycle is not None for pe in result.per_pe.values())
    assert PROGRAMS[program](machine)


def test_the_grid_covers_the_plan():
    assert len(CASES) * len(KERNELS) * len(PROGRAMS) == 1728 + 3 * 72
