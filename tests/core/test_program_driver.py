"""The machine's one program driver against an eager reference.

:class:`~repro.core.machine.ProgramDriver` visits only the PEs that act
in a cycle and keeps two counters lazy (a waiting PE's ``idle_cycles``,
a computing PE's ``compute_remaining``), settling them when
``stats()`` reads.  Every kernel shares it, so the kernel-equivalence
grid cannot catch a fault in it: a wrong count would be wrong the same
way on every kernel.  This module checks it instead against
:class:`EagerProgramDriver`, a driver that scans every PE every cycle
and updates every counter as it goes — the original implementation,
kept here as a test-only oracle.

Each kernel runs the new driver; the reference runs on the eager
kernel (``tests/eager_kernel.py``, the every-component loop).  Their
``stats().to_dict()`` must agree after every ``step()``, when a driver
reads in the middle of a cycle (phase 6, after the program tick, while
``machine.cycle`` still names the cycle), and after a final ``run()``
that fast-forwards over long compute gaps.
"""

from __future__ import annotations

import random
from typing import Any, Optional

import pytest
from eager_kernel import EAGER, eager_kernel

from repro.core.machine import MachineConfig, Ultracomputer, _ProgramPE
from repro.core.memory_ops import FetchAdd, Load, Op
from repro.core.paracomputer import ProgramFactory

N_PES = 16
#: the last PE is spawned this many cycles into the run
LATE_SPAWN = 5
#: cycles compared one ``step()`` at a time before the final ``run()``
STEPPED = 60


class EagerProgramDriver:
    """The eager program driver: every PE is visited every cycle and
    every counter is current, so there is nothing to settle."""

    def __init__(self, machine: Ultracomputer) -> None:
        self.machine = machine
        self.pes: list[_ProgramPE] = []

    def spawn(self, program_fn: ProgramFactory, *args: Any, **kwargs: Any) -> int:
        pe_id = len(self.pes)
        program = program_fn(pe_id, *args, **kwargs)
        self.pes.append(
            _ProgramPE(pe_id=pe_id, program=program, pni=self.machine.pnis[pe_id])
        )
        return pe_id

    def spawn_many(
        self, n: int, program_fn: ProgramFactory, *args: Any, **kwargs: Any
    ) -> list[int]:
        return [self.spawn(program_fn, *args, **kwargs) for _ in range(n)]

    def sync(self) -> None:
        """Nothing is lazy here."""

    def _advance(self, pe: _ProgramPE, sent: Any, cycle: int) -> None:
        try:
            yielded = pe.program.send(sent)
        except StopIteration as stop:
            pe.running = False
            pe.finished_cycle = cycle
            pe.return_value = stop.value
            return
        if yielded is None:
            pe.compute_remaining = 1
            pe.compute_cycles += 1
        elif isinstance(yielded, Op):
            pe.pending_op = yielded
        elif isinstance(yielded, int):
            if yielded <= 0:
                raise ValueError(f"PE {pe.pe_id} yielded non-positive delay")
            pe.compute_remaining = yielded
            pe.compute_cycles += yielded
        else:
            raise TypeError(
                f"PE {pe.pe_id} yielded {yielded!r}; programs must yield an "
                "Op, None, or a positive integer delay"
            )

    def tick(self, cycle: int) -> None:
        for pe in self.pes:
            if not pe.running:
                continue
            if pe.waiting_tag is not None:
                reply = pe.pni.pop_reply()
                if reply is None:
                    pe.idle_cycles += 1
                    continue
                assert reply.tag == pe.waiting_tag
                pe.waiting_tag = None
                self._advance(pe, reply.value, cycle)
                continue
            if pe.compute_remaining > 0:
                pe.compute_remaining -= 1
                if pe.compute_remaining == 0:
                    self._advance(pe, None, cycle)
                continue
            if pe.pending_op is not None:
                op = pe.pending_op
                if pe.pni.can_issue(op):
                    tag = pe.pni.issue(op, cycle)
                    pe.pending_op = None
                    pe.waiting_tag = tag
                    pe.ops_issued += 1
                else:
                    pe.idle_cycles += 1
                continue
            # Fresh PE: prime the generator.
            self._advance(pe, None, cycle)

    def done(self) -> bool:
        return all(not pe.running for pe in self.pes)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        nxt: Optional[int] = None
        for pe in self.pes:
            if not pe.running:
                continue
            if pe.waiting_tag is not None:
                if pe.pni.completed:
                    return cycle
                continue
            if pe.compute_remaining > 0:
                candidate = cycle + pe.compute_remaining - 1
                if candidate <= cycle:
                    return cycle
                if nxt is None or candidate < nxt:
                    nxt = candidate
                continue
            if pe.pending_op is not None:
                if pe.pni.can_issue(pe.pending_op):
                    return cycle
                continue
            return cycle  # fresh PE: priming the generator is an event
        return nxt

    def fast_forward(self, delta: int) -> None:
        for pe in self.pes:
            if not pe.running:
                continue
            if pe.waiting_tag is not None:
                pe.idle_cycles += delta
            elif pe.compute_remaining > 0:
                pe.compute_remaining -= delta
            elif pe.pending_op is not None:
                pe.idle_cycles += delta

    @property
    def total_idle_cycles(self) -> int:
        return sum(pe.idle_cycles for pe in self.pes)

    @property
    def total_compute_cycles(self) -> int:
        return sum(pe.compute_cycles for pe in self.pes)


def _mixed(pe_id, seed):
    """``yield None``, short and long delays (the long ones leave quiet
    cycles to fast-forward), F&A and loads on two hot cells; every
    fourth PE finishes after two rounds."""
    rng = random.Random(seed * 1009 + pe_id)
    total = 0
    for _ in range(2 if pe_id % 4 == 0 else 5):
        gap = rng.choice((None, 3, 70))
        yield gap
        total += yield FetchAdd(rng.randrange(2), 1)
        total += yield Load(rng.randrange(2))
    return total


class _Interferer:
    """At fixed cycles, loads the cell a PE's held op is for, on that
    PE's PNI: the op then meets a same-cell conflict (and a full window
    under ``max_outstanding=1``) until the load's reply arrives.  The
    PE is not waiting then, so the reply is left for this driver, which
    collects its replies after the program driver's tick."""

    def __init__(self, machine: Ultracomputer, seed: int) -> None:
        self.machine = machine
        self.rng = random.Random(seed)
        self.plan = set(self.rng.sample(range(1, 200), 60))
        self.outstanding: set[int] = set()

    def tick(self, cycle: int) -> None:
        pnis = self.machine.pnis
        holding = [pe for pe in self.machine.programs.pes if pe.pending_op]
        if cycle in self.plan and holding:
            pe = self.rng.choice(holding)
            load = Load(pe.pending_op.address)
            if pe.pni.can_issue(load):
                self.outstanding.add(pe.pni.issue(load, cycle))
        replied = self.machine._pni_replied
        for pe in sorted(replied):
            completed = pnis[pe].completed
            while completed:
                self.outstanding.remove(completed.popleft().tag)
        replied.clear()

    def done(self) -> bool:
        return not self.outstanding and self.machine.cycle > max(self.plan)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return min((c for c in self.plan if c >= cycle), default=None)

    def fast_forward(self, delta: int) -> None:
        """Nothing accrues while no load is planned."""


class _MidCycleReader:
    """Reads ``stats()`` in phase 6 of every executed cycle, after the
    program driver's tick; it never asks for a cycle of its own."""

    def __init__(self, machine: Ultracomputer) -> None:
        self.machine = machine
        self.reads: dict[int, dict] = {}

    def tick(self, cycle: int) -> None:
        self.reads[cycle] = self.machine.stats().to_dict()

    def done(self) -> bool:
        return True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return None

    def fast_forward(self, delta: int) -> None:
        """Nothing to skip."""


@pytest.fixture(autouse=True, scope="module")
def _eager_oracle():
    with eager_kernel():
        yield


def _machine(kernel, max_outstanding, seed, reference=False):
    machine = Ultracomputer(MachineConfig(
        n_pes=N_PES, kernel=kernel, max_outstanding=max_outstanding))
    if reference:
        machine.programs = EagerProgramDriver(machine)
        machine.drivers[0] = machine.programs
    machine.spawn_many(N_PES - 1, _mixed, seed)
    machine.attach_driver(_Interferer(machine, seed))
    reader = _MidCycleReader(machine)
    machine.attach_driver(reader)
    return machine, reader


@pytest.mark.parametrize("kernel", ["dense", "event", "batch"])
@pytest.mark.parametrize("max_outstanding", [None, 1])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_the_eager_driver(kernel, max_outstanding, seed):
    reference, expected = _machine(EAGER, max_outstanding, seed, reference=True)
    machine, reader = _machine(kernel, max_outstanding, seed)
    for cycle in range(STEPPED):
        if cycle == LATE_SPAWN:
            for m in (reference, machine):
                m.spawn(_mixed, seed)
        reference.step()
        machine.step()
        assert machine.stats().to_dict() == reference.stats().to_dict(), (
            f"stats differ after cycle {cycle}")
        assert reader.reads[cycle] == expected.reads[cycle], (
            f"a mid-cycle read differs in cycle {cycle}")
    result = machine.run().to_dict()
    assert result == reference.run().to_dict()
    # The later reads happen only on the cycles this kernel executes.
    for cycle, read in reader.reads.items():
        assert read == expected.reads[cycle], (
            f"a mid-cycle read differs in cycle {cycle}")
    # The workload covers what it is for.
    assert result["idle_cycles"] > 0
    assert result["cycles"] > 2 * STEPPED
    if kernel != "dense":
        assert len(reader.reads) < result["cycles"], "nothing fast-forwarded"
    finished = [r["finished_cycle"] for r in result["per_pe"].values()]
    assert min(finished) < max(finished) // 2, "no PE finished early"


def test_blocked_ops_are_covered():
    """The interferer does block program ops under both windows: some
    PE holds its op across a tick, so its issue was refused."""
    for max_outstanding in (None, 1):
        machine, _ = _machine("dense", max_outstanding, 0, reference=True)
        refused = 0
        while not machine.quiescent():
            before = {pe.pe_id for pe in machine.programs.pes if pe.pending_op}
            machine.step()
            refused += sum(1 for i in before
                           if machine.programs.pes[i].pending_op is not None)
        assert refused > 0


def test_a_stale_replied_mark_does_not_wake_a_waiting_pe():
    """A driver that polls PNIs leaves its PEs in the replied set; a
    program PE that then waits on such a PNI keeps waiting until its
    own reply arrives."""
    def load_twice(pe_id):
        first = yield Load(pe_id)
        return first + (yield Load(pe_id))

    results = []
    for stale in (False, True):
        machine = Ultracomputer(MachineConfig(n_pes=4))
        machine.spawn_many(4, load_twice)
        machine.step()
        machine.step()  # every PE now waits on its first load
        assert all(pe.waiting_tag for pe in machine.programs.pes)
        if stale:
            machine._pni_replied.update(range(4))
        results.append(machine.run().to_dict())
    assert results[0] == results[1]
