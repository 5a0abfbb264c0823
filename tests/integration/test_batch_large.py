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
called per message; they also pin how many direction steps move in one
pass, and check that ``stats()`` writes no plane back.  A 256-PE
barrier under dense checks that the program driver polls no waiting
PE: one ``PNI.pop_reply`` per reply; under batch, that its combining
bursts walk the stages.
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

    def test_uniform_drain_moves_in_one_pass(self, monkeypatch):
        """Pinned work counts: of the drain's 124 direction steps, 37
        find no traffic, 81 move every stage in one pass and 6 walk the
        stages (a possible combine or a wait record), so the per-stage
        ``_hop`` runs 7 times, where it ran 603 times when every step
        walked the stages."""
        plane = batch_kernel._MessagePlane
        calls = collections.Counter()

        def counted(name):
            real = getattr(plane, name)

            def spy(self, *args):
                out = real(self, *args)
                calls[name, out if name == "_one_pass" else None] += 1
                return out
            return spy

        for name in ("_step", "_one_pass", "_staged", "_hop"):
            monkeypatch.setattr(plane, name, counted(name))
        uniform_drained(N_PES, "batch")
        assert calls == {("_step", None): 124, ("_one_pass", True): 81,
                         ("_staged", None): 6, ("_hop", None): 7}

    def test_instrumented_drain_moves_in_one_pass(self, monkeypatch):
        """Pinned: an instrumented drain with a full trace takes the
        plain drain's path, the same 81 one-pass direction steps of 124
        (an instrumented run once walked the stages at every step), and
        equals dense's bit for bit."""
        plane = batch_kernel._MessagePlane
        one_pass = plane._one_pass
        calls = collections.Counter()

        def spy(self, *args):
            out = one_pass(self, *args)
            calls[out] += 1
            return out

        monkeypatch.setattr(plane, "_one_pass", spy)
        knobs = {"instrument": True, "trace_capacity": 1 << 17}
        batch = uniform_drained(N_PES, "batch", **knobs)
        monkeypatch.undo()
        assert calls == {True: 81}
        assert batch["trace"] and not batch["trace_dropped"]
        assert batch == uniform_drained(N_PES, "dense", **knobs)

    def test_stats_writes_nothing_back(self, monkeypatch):
        """``stats()`` totals the combines and decombines from the
        switch counters and the planes' pending deltas: an open-loop
        ``run_cycles`` and a ``stats()`` flush no plane, and both
        results equal dense's."""
        flushes = collections.Counter()
        flush = batch_kernel._MessagePlane.flush

        def spy(self):
            flushes["flush"] += 1
            flush(self)

        monkeypatch.setattr(batch_kernel._MessagePlane, "flush", spy)
        results = []
        for kernel in ("batch", "dense"):
            machine = Ultracomputer(MachineConfig(n_pes=N_PES, kernel=kernel))
            machine.attach_driver(SyntheticTrafficDriver(machine, TrafficSpec(
                rate=0.05, pattern="hotspot", hot_fraction=0.1, seed=5)))
            results.append((machine.run_cycles(40).to_dict(),
                            machine.stats().to_dict()))
            if kernel == "batch":
                assert flushes == {}
        assert results[0] == results[1]
        assert results[0][1]["combines"] > results[0][1]["decombines"] > 0

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


class TestBarrierBursts:
    def test_combining_bursts_walk_the_stages(self, monkeypatch):
        """On a 256-PE barrier the hazard test sends the combining
        bursts down the stage-ordered walk: every combine and decombine
        a direction step makes, it makes in ``_staged``."""
        plane = batch_kernel._MessagePlane
        merged = collections.Counter()
        refused = collections.Counter()

        def counted(name):
            real = getattr(plane, name)

            def spy(self, grid, *args):
                before = int(grid.merged.sum())
                out = real(self, grid, *args)
                merged[name, grid.forward] += int(grid.merged.sum()) - before
                if out is False:
                    refused[grid.forward] += 1
                return out
            return spy

        for name in ("_one_pass", "_staged"):
            monkeypatch.setattr(plane, name, counted(name))
        machine = Ultracomputer(MachineConfig(n_pes=256, kernel="batch"))
        machine.spawn_many(256, barrier_rounds, 2, 20)
        result = machine.run()
        assert result.combines == 2 * 255
        assert refused[True] > 0 and refused[False] > 0
        assert merged["_one_pass", True] == merged["_one_pass", False] == 0
        assert merged["_staged", True] > 0 and merged["_staged", False] > 0


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
