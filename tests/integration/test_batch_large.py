"""Large-machine smoke for the batch kernel (the 1024-PE design point).

The differential grid in ``test_kernel_equivalence.py`` pins
bit-identity up to 64 PEs with full instrumentation; these tests extend
the check to the scale the batch kernel exists for.  The dense
comparison runs a short window (dense at 1024 PEs costs ~3 ms/cycle, so
a full run would dominate the suite) except for a two-round barrier,
which also checks that pure fetch-and-add combining never leaves the
array path when every step is forced onto it; the batch-only test runs a longer barrier-round workload to
completion and checks the paper-level outcome — near-total combining of
synchronized fetch-and-adds.  The
uniform-traffic tests run the benchmark's traffic shape (Bernoulli
offers from a custom driver, then a drain one ``step()`` at a time) and
check that phase 3 batches that driver's requests too, and that the
memory side runs on arrays: no ``MNI`` method and no ``make_reply`` is
called per message.  A 256-PE barrier under dense checks that the
program driver polls no waiting PE: one ``PNI.pop_reply`` per reply.
"""

from __future__ import annotations

import collections
import random

import repro.core.batch_kernel as batch_kernel
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd
from repro.network.interfaces import MNI, PNI
from repro.network.message import Message
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

N_PES = 1024


def hotspot_program(pe_id, rounds=3, seed=0):
    rng = random.Random((seed << 16) | pe_id)
    total = 0
    for _ in range(rounds):
        yield rng.randrange(1, 30)
        total += yield FetchAdd(0, 1)
    return total


def barrier_rounds(pe_id, rounds=4, gap=300):
    total = 0
    for _ in range(rounds):
        yield gap
        total += yield FetchAdd(0, 1)
    return total


class TestThousandPEParity:
    def test_short_hotspot_window_identical(self):
        results = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(n_pes=N_PES, kernel=kernel))
            machine.spawn_many(N_PES, hotspot_program, 3, 17)
            results.append(machine.run_cycles(60).to_dict())
        assert results[0] == results[1]


def uniform_drained(n_pes, kernel, offered=30, **overrides):
    """Uniform open-loop traffic at rate 0.05 for ``offered`` cycles,
    then drained with single steps (the ``fig7`` benchmark's shape)."""
    machine = Ultracomputer(MachineConfig(n_pes=n_pes, kernel=kernel, **overrides))
    driver = SyntheticTrafficDriver(
        machine, TrafficSpec(rate=0.05, pattern="uniform", seed=5)
    )
    machine.attach_driver(driver)
    machine.run_cycles(offered)
    driver.drain(offered * 4)
    assert all(pni.outstanding() == 0 for pni in machine.pnis)
    return machine.stats().to_dict()


class TestUniformTrafficParity:
    def test_thousand_pe_uniform_drain_identical(self, monkeypatch):
        """Dense-identical, and phase 3 offers the custom driver's heads
        to stage 0 in batches rather than one PNI at a time."""
        plane = batch_kernel._MessagePlane
        inject_requests = plane.inject_requests
        offered = []

        def spy(self, pes, messages, cycle):
            offered.append(len(pes))
            return inject_requests(self, pes, messages, cycle)

        monkeypatch.setattr(plane, "inject_requests", spy)
        batch = uniform_drained(N_PES, "batch")
        assert max(offered, default=0) >= plane.vector_min
        assert batch == uniform_drained(N_PES, "dense")

    def test_memory_side_makes_no_per_message_calls(self, monkeypatch):
        """The MNIs are served, fed and drained on arrays: a batch run
        calls no ``MNI.tick``, no ``MNI.offer_inbound`` and no
        ``Message.make_reply``, and stays dense-identical."""
        calls = collections.Counter()
        for owner, name in ((MNI, "tick"), (MNI, "offer_inbound"),
                            (Message, "make_reply")):
            def spy(*args, _name=name, _real=getattr(owner, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(owner, name, spy)
        batch = uniform_drained(N_PES, "batch")
        monkeypatch.undo()
        assert batch["requests_issued"] > 0
        assert calls == {}
        assert batch == uniform_drained(N_PES, "dense")

    def test_program_driver_visits_only_acting_pes(self, monkeypatch):
        """The program driver polls no waiting PE: on a 256-PE F&A
        barrier under dense it pops each delivered reply once and makes
        no other ``PNI.pop_reply`` call."""
        calls = collections.Counter()
        pop_reply = PNI.pop_reply

        def spy(self):
            calls["pop_reply"] += 1
            return pop_reply(self)

        monkeypatch.setattr(PNI, "pop_reply", spy)
        machine = Ultracomputer(MachineConfig(n_pes=256))
        machine.spawn_many(256, barrier_rounds, 2, 20)
        result = machine.run()
        assert result.replies_received == 2 * 256
        assert calls["pop_reply"] == result.replies_received

    def test_instrumented_uniform_drain_identical(self):
        knobs = {"instrument": True, "trace_capacity": 1 << 16}
        assert uniform_drained(256, "batch", **knobs) == uniform_drained(
            256, "dense", **knobs
        )


def barrier_machine(kernel, rounds=2, gap=20):
    machine = Ultracomputer(MachineConfig(n_pes=N_PES, kernel=kernel))
    machine.spawn_many(N_PES, barrier_rounds, rounds, gap)
    return machine


class TestThousandPEBarrier:
    def test_barrier_run_identical(self):
        """The whole combining tree, out and back, against dense (which
        needs ~3 ms a cycle here, so two short rounds)."""
        assert (barrier_machine("batch").run().to_dict()
                == barrier_machine("dense").run().to_dict())

    def test_pure_fetch_add_barrier_never_combines_per_message(self, monkeypatch):
        """Uninstrumented pairwise F&A combining and decombining run
        entirely on the array path: with every step vectorized (by
        default a step of fewer than ``vector_min`` heads goes one at a
        time, which is faster there), no ``try_combine`` and no
        per-message offer."""
        machine = barrier_machine("batch")
        machine.kernel._ensure_state()  # the planes' set-up may call it
        for plane in machine.kernel._states:
            plane.vector_min = 1
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(batch_kernel, "try_combine",
                            counted("try_combine", batch_kernel.try_combine))
        for plane in machine.kernel._states:
            for name in ("_offer_forward", "_offer_return"):
                setattr(plane, name, counted(name, getattr(plane, name)))
        result = machine.run()
        assert result.combines == 2 * (N_PES - 1)
        assert calls == {}


class TestThousandPECompletion:
    def test_barrier_rounds_run_to_quiescence(self):
        machine = Ultracomputer(MachineConfig(n_pes=N_PES, kernel="batch"))
        machine.spawn_many(N_PES, barrier_rounds, 4, 300)
        result = machine.run()
        assert all(r.finished for r in result.per_pe.values())
        assert result.requests_issued == N_PES * 4
        # Synchronized rounds against one cell are the paper's ideal
        # combining case: nearly every request is absorbed in-network.
        assert result.combining_rate > 0.9
        # Fetch-and-add serializability: each round hands out distinct
        # tickets, so per-PE totals sum to sum(0..N*rounds-1).
        total = sum(r.return_value for r in result.per_pe.values())
        n = N_PES * 4
        assert total == n * (n - 1) // 2
