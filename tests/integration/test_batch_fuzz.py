"""Knob fuzz: the batch kernel against dense across the machine's knobs.

The differential grid in ``test_kernel_equivalence.py`` runs a fixed
set of configurations.  This test lets hypothesis draw the knobs the
batch kernel's message plane has to honour — the fabric (omega,
hypercube or mesh), switch arity, network copies, finite switch queues,
finite wait buffers, combining on/off, pairwise-only combining, MNI
back-pressure, memory latency, address hashing and the PNI window — and
checks that ``RunResult.to_dict()``, including the
instrumentation snapshot and the cycle trace, is bit-identical to the
dense kernel's.  Two workload kinds run on each draw: closed programs
mixing fetch-and-add, load and store on a few shared cells (combining
and decombining of every pairing) or in lockstep on one or two cells
(the combining-heavy barrier shape), which must all run to completion,
and open-loop hot-spot traffic that
is offered for a while and then drained one ``step()`` at a time (the
custom-driver path, with the object view written back when the result
is read).

Machines this small send only a few messages per stage and cycle, which
the kernel moves one at a time; each draw also picks whether to force
every stage step through the vectorized path instead, so both paths
meet every knob.  Uninstrumented draws compare the result without the
metrics and trace, which lets the kernel mix vectorized and
per-message offers within a stage step.
"""

from __future__ import annotations

import random

from eager_kernel import eager_kernel
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

#: offered cycles of open-loop traffic before the drain
OFFERED = 40
#: drain bound (in single steps) of the open-loop runs
DRAIN = 600
#: cycle budget of the closed runs
MAX_CYCLES = 5_000


@st.composite
def configs(draw) -> dict:
    return {
        "topology": draw(st.sampled_from(["omega", "hypercube", "mesh"])),
        "k": draw(st.sampled_from([2, 4])),
        "n_pes": draw(st.sampled_from([4, 16, 64])),
        "copies": draw(st.sampled_from([1, 2])),
        "queue_capacity_packets": draw(st.sampled_from([None, 4, 15])),
        "wait_buffer_capacity": draw(st.sampled_from([None, 1, 2])),
        "combining": draw(st.booleans()),
        "pairwise_only": draw(st.booleans()),
        "mni_inbound_capacity_packets": draw(st.sampled_from([None, 3])),
        "mm_latency": draw(st.sampled_from([1, 2, 5])),
        "translation": draw(st.sampled_from(["interleaved", "hashed"])),
        "max_outstanding": draw(st.sampled_from([None, 2])),
        "instrument": draw(st.booleans()),
        "vectorized": draw(st.booleans()),
    }


def _machine(kernel: str, knobs: dict) -> Ultracomputer:
    knobs = dict(knobs)
    instrument = knobs.pop("instrument")
    vectorized = knobs.pop("vectorized")
    machine = Ultracomputer(
        MachineConfig(kernel=kernel, instrument=instrument,
                      trace_capacity=(1 << 13) if instrument else 0, **knobs)
    )
    if kernel == "batch" and vectorized:
        machine.kernel._ensure_state()
        for plane in machine.kernel._states:
            plane.vector_min = 1  # every stage step takes the numpy path
    return machine


def mixed_program(pe_id, rounds, seed):
    """Fetch-and-adds, loads and stores on three shared cells and one
    private one, with short compute gaps."""
    rng = random.Random((seed << 16) | pe_id)
    acc = 0
    for i in range(rounds):
        yield rng.randrange(1, 6)
        address = rng.choice((0, 1, 2, 256 + pe_id))
        kind = rng.randrange(3)
        if kind == 0:
            acc += yield FetchAdd(address, pe_id + 1)
        elif kind == 1:
            yield Store(address, acc + i)
        else:
            acc += (yield Load(address)) or 0
    return acc


def lockstep_program(pe_id, rounds, seed):
    """The combining-heavy shape: every PE issues after the same gaps,
    on one or two shared cells, all with one kind (F&A, Load or Store)
    in most rounds and a kind of its own in the rest."""
    shared = random.Random(seed)
    own = random.Random((seed << 16) | pe_id)
    cells = shared.choice((1, 2))
    acc = 0
    for i in range(rounds):
        yield shared.randrange(1, 4)
        address = (pe_id + i) % cells
        kind = shared.randrange(4)
        if kind == 3:
            kind = own.randrange(3)
        if kind == 0:
            acc += yield FetchAdd(address, pe_id + 1)
        elif kind == 1:
            yield Store(address, acc + i)
        else:
            acc += (yield Load(address)) or 0
    return acc


def _closed(kernel: str, knobs: dict, seed: int, program=mixed_program) -> dict:
    """The run's result; a run that does not finish within
    ``MAX_CYCLES`` raises."""
    machine = _machine(kernel, knobs)
    machine.spawn_many(knobs["n_pes"], program, 4, seed)
    return machine.run(max_cycles=MAX_CYCLES).to_dict()


def _open(kernel: str, knobs: dict, seed: int, rate: float) -> dict:
    machine = _machine(kernel, knobs)
    driver = SyntheticTrafficDriver(
        machine,
        TrafficSpec(rate=rate, pattern="hotspot", hot_fraction=0.5, seed=seed),
    )
    machine.attach_driver(driver)
    machine.run_cycles(OFFERED)
    driver.drain(DRAIN)
    return machine.stats().to_dict()


_SETTINGS = settings(
    max_examples=75,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBatchKnobFuzz:
    @_SETTINGS
    @given(knobs=configs(), seed=st.integers(min_value=0, max_value=2**16),
           program=st.sampled_from([mixed_program, lockstep_program]))
    def test_closed_programs_identical(self, knobs, seed, program):
        assert (_closed("batch", knobs, seed, program)
                == _closed("dense", knobs, seed, program))

    @_SETTINGS
    @given(
        knobs=configs(),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.1, 0.3]),
    )
    # A decombining reply and a plain reply to another port of the same
    # switch in one vectorized step, against 4-packet queues: their order
    # decides which fits.
    @example(
        knobs={"topology": "omega", "k": 4, "n_pes": 16, "copies": 1, "queue_capacity_packets": 4,
               "wait_buffer_capacity": None, "combining": True,
               "pairwise_only": True, "mni_inbound_capacity_packets": None,
               "mm_latency": 2, "translation": "interleaved", "max_outstanding": None,
               "instrument": False, "vectorized": True},
        seed=965,
        rate=0.1,
    )
    def test_open_loop_hotspot_identical(self, knobs, seed, rate):
        assert _open("batch", knobs, seed, rate) == _open("dense", knobs, seed, rate)


def test_decombining_fan_out_fits_its_queue():
    """Two 3-packet replies bound for one ToPE port of a 4-packet queue
    can never both fit, so their requests must not combine: the run
    once wedged here on every kernel, with the reply stuck at the head
    of its MNI's outbound queue."""
    knobs = {"n_pes": 16, "k": 4, "queue_capacity_packets": 4,
             "instrument": False, "vectorized": False}
    with eager_kernel() as eager:
        reference = _closed(eager, knobs, seed=1)
    assert _closed("dense", knobs, seed=1) == reference
    assert _closed("batch", knobs, seed=1) == reference
