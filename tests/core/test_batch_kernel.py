"""Unit and property tests for the batch kernel's array state.

The batch kernel keeps every message resident in a network copy in
numpy arrays (its ``_MessagePlane``), the MNIs in arrays shared by the
copies (its ``_MemorySide``), and writes the switch and MNI objects back
when the machine's public readers look.  The correctness condition is
that the written view is dense's: after any number of executed cycles,
the objects the arrays were written to equal those a dense machine
running the same workload holds.  Hypothesis drives machines through
varied sizes, workloads, and seeds and compares the two at an arbitrary
cut point; the public readers are checked against the dense kernel's at
every cut.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from helpers import mni_view, network_view, object_view

import repro.core.batch_kernel as batch_kernel
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store


def _program(pe_id, rounds, seed):
    rng = random.Random((seed << 16) | pe_id)
    acc = 0
    for i in range(rounds):
        yield rng.randrange(1, 20)
        choice = rng.randrange(3)
        if choice == 0:
            acc += yield FetchAdd(0, 1)
        elif choice == 1:
            yield Store(64 + pe_id * 4 + (i % 4), acc)
        else:
            acc += yield Load(64 + pe_id * 4 + (i % 4))
    return acc


def _mirror_states(machine):
    """The kernel's per-copy message planes (forces state construction)."""
    kernel = machine.kernel
    kernel._ensure_state()
    return kernel._states


def _stepped_pair(config, cycles, *program):
    """A dense and a batch machine of ``config`` running ``program`` on
    every PE, each stepped ``cycles`` times."""
    machines = []
    for kernel in ("dense", "batch"):
        machine = Ultracomputer(dataclasses.replace(config, kernel=kernel))
        machine.spawn_many(config.n_pes, *program)
        for _ in range(cycles):
            machine.step()
        machines.append(machine)
    return machines


class TestStateRoundTrip:
    """The arrays, written to the object view, hold dense's state."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_pes=st.sampled_from([4, 16]),
        seed=st.integers(min_value=0, max_value=2**16),
        cycles=st.integers(min_value=0, max_value=120),
        copies=st.sampled_from([1, 2]),
    )
    def test_arrays_match_objects_at_any_cut(self, n_pes, seed, cycles, copies):
        dense, batch = _stepped_pair(
            MachineConfig(n_pes=n_pes, copies=copies), cycles, _program, 4, seed)
        assert object_view(batch) == object_view(dense)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        queue_capacity=st.sampled_from([4, 6]),
    )
    def test_round_trip_with_finite_queues(self, seed, queue_capacity):
        """Back-pressure exercises the refusal paths (blocked offers must
        leave the arrays untouched, accepted ones must land exactly)."""
        dense, batch = _stepped_pair(
            MachineConfig(n_pes=16, queue_capacity_packets=queue_capacity,
                          max_outstanding=2), 80, _program, 4, seed)
        assert object_view(batch) == object_view(dense)

    def test_arrays_empty_after_quiescent_run(self):
        dense, batch = _stepped_pair(MachineConfig(n_pes=16), 0, _program, 4, 7)
        assert batch.run().to_dict() == dense.run().to_dict()
        for state in _mirror_states(batch):
            assert not state.has_messages()
        assert object_view(batch) == object_view(dense)


class TestConstruction:
    def test_registry_builds_batch_kernel(self):
        machine = Ultracomputer(MachineConfig(n_pes=4, kernel="batch"))
        assert machine.kernel.name == "batch"

    def test_results_match_dense_after_interleaved_steps(self):
        """Mixing step()/run_cycles()/run() must stay bit-identical —
        the machine's readers write the kernel's arrays back first."""
        outcomes = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(
                MachineConfig(
                    n_pes=8, kernel=kernel, instrument=True,
                    trace_capacity=1 << 12,
                )
            )
            machine.spawn_many(8, _program, 4, 13)
            for _ in range(10):
                machine.step()
            machine.run_cycles(25)
            outcomes.append(
                (machine.stats().to_dict(), machine.run().to_dict())
            )
        assert outcomes[0] == outcomes[1]

    def test_unknown_kernel_still_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            Ultracomputer(MachineConfig(n_pes=4, kernel="vector"))


def _barrier(pe_id, increments, gap):
    fetched = []
    for inc in increments:
        yield gap
        fetched.append((yield FetchAdd(0, inc)))
    return fetched


def _forced_vector(machine):
    """Every stage step and injection takes the vectorized path."""
    for plane in _mirror_states(machine):
        plane.vector_min = 1
    return machine


def _huge_increments(scale, pe):
    """PE ``pe``'s increments in the lockstep rounds that take a counter
    from 0 to huge and back (see :class:`TestExactness`)."""
    return [scale + pe, 3, -(scale + pe), pe - 1, scale // 2 - pe,
            -(scale // 2 - pe), scale // 128, scale // 128 + pe, 5]


class TestExactness:
    @pytest.mark.parametrize("scale", [2**62, 2**70])
    def test_huge_operands_stay_exact(self, scale):
        """F&A operands, combined sums and decombined values near or past
        int64 must leave the arrays for ``try_combine``.  The lockstep
        rounds take the counter from 0 to huge and back, so there are
        huge operands, sums of two that cross the bound, huge fetched
        values, and fetched values whose sum with a datum crosses it,
        next to rounds the vectorized path takes."""
        def increments(pe):
            return _huge_increments(scale, pe)

        outcomes = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(n_pes=64, kernel=kernel))
            if kernel == "batch":
                _forced_vector(machine)
            for pe in range(64):
                machine.spawn(_barrier, increments(pe), 5)
            outcomes.append((machine.run().to_dict(), machine.peek(0)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][1] == sum(sum(increments(pe)) for pe in range(64))


#: the machine's public readers of the object view, each read first
#: after some step (the first read is the one that writes the view back)
_READERS = {
    "networks": lambda machine: [network_view(n) for n in machine.networks],
    "network": lambda machine: network_view(machine.network),
    "mnis": lambda machine: mni_view(machine.mnis),
    "stats": lambda machine: machine.stats().to_dict(),
    "quiescent": lambda machine: machine.quiescent(),
}


def _read_all(machine, first):
    """Every public reader's view, ``first`` read first."""
    names = [first] + [name for name in _READERS if name != first]
    return {name: _READERS[name](machine) for name in names}


class _Probe:
    """A driver that reads the object view in the middle of each cycle
    (phase 6), one reader first per cycle in rotation."""

    def __init__(self, machine):
        self.machine = machine
        self.views = []

    def tick(self, cycle):
        first = list(_READERS)[cycle % len(_READERS)]
        self.views.append(_read_all(self.machine, first))

    def done(self):
        return True


def _spawn_mixed(machine):
    machine.spawn_many(16, _program, 4, 11)


def _spawn_huge(machine):
    """:class:`TestExactness`'s lockstep rounds at 2**62 and then 2**70,
    every batch step vectorized: replies carry values not exact in
    int64."""
    if machine.kernel.name == "batch":
        _forced_vector(machine)
    for pe in range(16):
        machine.spawn(_barrier, _huge_increments(2**62, pe)
                      + _huge_increments(2**70, pe), 5)


class TestPublicReaders:
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("mni_capacity", [None, 3])
    def test_every_reader_matches_dense_at_every_cut(self, copies, mni_capacity):
        """After every ``step()`` each public reader sees what it sees
        under dense; the reader that looks first rotates, so each one
        is the one that writes the view back at some cut.  A driver
        reading mid-cycle sees dense's view too.  The inputs are a mix
        of kinds and cells, and lockstep F&A rounds whose replies carry
        values not exact in int64 while the view is read."""
        for spawn in (_spawn_mixed, _spawn_huge):
            machines, probes = [], []
            for kernel in ("dense", "batch"):
                machine = Ultracomputer(MachineConfig(
                    n_pes=16, kernel=kernel, copies=copies,
                    mni_inbound_capacity_packets=mni_capacity))
                spawn(machine)
                probes.append(_Probe(machine))
                machine.attach_driver(probes[-1])
                machines.append(machine)
            names = list(_READERS)
            cut = wide = 0
            while not machines[0].quiescent():
                assert cut < 1000, "the workload did not finish"
                views = []
                for machine in machines:
                    machine.step()
                    views.append(_read_all(machine, names[cut % len(names)]))
                for name in names:
                    assert views[0][name] == views[1][name], (
                        f"{spawn.__name__}: {name} differs from dense after "
                        f"cycle {cut}")
                assert probes[0].views[-1] == probes[1].views[-1], (
                    f"{spawn.__name__}: a mid-cycle read differs from dense "
                    f"in cycle {cut}")
                wide += any(plane.wide for plane in machines[1].kernel._states)
                cut += 1
            assert machines[1].quiescent()
            assert (wide > 0) == (spawn is _spawn_huge)


class TestWaitBufferRoundTrip:
    @pytest.mark.parametrize("cut", [17, 26])
    def test_wait_buffers_match_dense_then_finish(self, cut):
        """A 256-PE barrier cut while wait records are outstanding at
        several stages (on the way out at 17, decombining at 26): the
        flushed object view equals dense's, and the run finishes
        identically."""
        rng = random.Random(cut)
        increments = [[rng.randint(1, 7) for _ in range(2)] for _ in range(256)]
        machines = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(n_pes=256, kernel=kernel))
            for pe in range(256):
                machine.spawn(_barrier, increments[pe], 10)
            machine.run_cycles(cut)
            machines.append(machine)
        dense, batch = machines
        stages = {r.stage for row in batch.network.stages for sw in row
                  for wb in sw.wait_buffers for stack in wb._records.values()
                  for r in stack}
        assert len(stages) >= 4
        assert object_view(batch) == object_view(dense)
        assert batch.run().to_dict() == dense.run().to_dict()


def _mixed_barrier(pe_id, rounds):
    for _ in range(rounds):
        yield 3
        if pe_id % 2:
            yield Load(0)
        else:
            yield FetchAdd(0, 1)


class TestCombiningPaths:
    @pytest.mark.parametrize("knobs, program", [
        ({"pairwise_only": False}, _barrier),
        ({}, _mixed_barrier),
    ], ids=["unlimited", "mixed-kinds"])
    def test_other_combining_uses_try_combine(self, monkeypatch, knobs, program):
        """Only pairwise combining of one kind runs on arrays; the rest
        keeps the one combining algebra."""
        machine = _forced_vector(Ultracomputer(
            MachineConfig(n_pes=64, kernel="batch", **knobs)))
        calls = []
        real = batch_kernel.try_combine

        def counted(old, new):
            calls.append(1)
            return real(old, new)

        monkeypatch.setattr(batch_kernel, "try_combine", counted)
        args = ([1, 2, 3], 4) if program is _barrier else (3,)
        machine.spawn_many(64, program, *args)
        assert machine.run().combines > 0
        assert calls


    def test_instrumented_barrier_combines_on_arrays(self, monkeypatch):
        """An instrumented run takes the plain run's path: a pairwise
        F&A barrier with every step vectorized makes no ``try_combine``
        call, and its result, metrics and trace included, equals
        dense's."""
        calls = []
        real = batch_kernel.try_combine

        def counted(old, new):
            calls.append(1)
            return real(old, new)

        results = []
        for kernel in ("batch", "dense"):
            machine = Ultracomputer(MachineConfig(
                n_pes=64, kernel=kernel, instrument=True,
                trace_capacity=1 << 12))
            if kernel == "batch":
                _forced_vector(machine)  # the planes' set-up calls it
                monkeypatch.setattr(batch_kernel, "try_combine", counted)
            machine.spawn_many(64, _barrier, [1, 2, 3], 4)
            results.append(machine.run().to_dict())
        assert results[0]["combines"] > 0
        assert results[0]["trace"]
        assert calls == []
        assert results[0] == results[1]
