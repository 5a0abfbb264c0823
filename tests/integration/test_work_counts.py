"""Deterministic work counts at the PE boundary of both 4096-PE workloads.

An outstanding request is a row of plain values (``interfaces.Request``)
from issue to reply, and a batch run builds an object only when
something reads it.  These gates count, inside a seed-1 uninstrumented
batch run of each benchmark workload (run as ``perfbench`` runs it),
the per-request objects and calls that the rows replaced:

* ``Message`` and ``WaitRecord`` objects (only the object view's
  write-back builds one, and nothing reads the view during these runs);
* ``dataclasses.replace`` of an op to its physical address;
* ``AddressTranslation.translate`` (a batch is translated by
  ``translate_many``);
* ``MemoryModule.apply`` (a Load, Store or F&A is applied from the
  plane's columns);
* ``ReplyRecord`` objects (built only for a reader that pops one: the
  program driver pops each reply, the traffic driver reads round trips
  from the rows).

A count may not rise unless the change that raises it says why.  The
switch objects are the object view too: a 4096-PE batch run, plain or
instrumented, builds none until a public reader looks.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd
from repro.memory import hashing
from repro.memory.module import MemoryModule
from repro.network.interfaces import ReplyRecord
from repro.network.message import Message
from repro.network.switch import Switch
from repro.network.wait_buffer import WaitRecord
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

PES = 4096


@pytest.fixture
def counts(monkeypatch):
    """Count the per-request objects and calls the rows replaced."""
    seen = collections.Counter()

    def counting(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            seen[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(Message, "__init__", "Message")
    counting(WaitRecord, "__init__", "WaitRecord")
    counting(dataclasses, "replace", "replace")
    for cls in (hashing.InterleavedTranslation, hashing.BlockedTranslation,
                hashing.HashedTranslation):
        counting(cls, "translate", "translate")
    counting(MemoryModule, "apply", "apply")
    make = ReplyRecord._make
    monkeypatch.setattr(ReplyRecord, "_make", classmethod(
        lambda cls, fields: seen.update(["ReplyRecord"]) or make(fields)))
    return seen


def test_fig7_boundary_work(counts):
    """``fig7-sim-4096``: uniform Bernoulli(0.05) traffic for 200 offered
    cycles, then drain one step at a time."""
    machine = Ultracomputer(MachineConfig(n_pes=PES, kernel="batch"))
    spec = TrafficSpec(rate=0.05, pattern="uniform", seed=1)
    drain = TrafficSpec(rate=0.0, pattern="uniform", seed=1)
    driver = SyntheticTrafficDriver(machine, spec)
    machine.attach_driver(driver)
    machine.run_cycles(200)
    driver.spec = drain
    for _ in range(800):
        if all(pni.outstanding() == 0 for pni in machine.pnis):
            break
        machine.step()
    result = machine.stats()
    assert result.replies_received == result.requests_issued == 40_911
    for label in ("Message", "WaitRecord", "replace", "translate", "apply",
                  "ReplyRecord"):
        assert counts[label] == 0, (label, counts[label])


def barrier_program(pe_id, increments, gap):
    fetched = []
    for inc in increments:
        yield gap
        fetched.append((yield FetchAdd(0, inc)))
    return fetched


def test_barrier_boundary_work(counts):
    """``barrier-4096``: 24 rounds of a 100-cycle compute gap, then every
    PE fetch-and-adds cell 0."""
    rng = random.Random(1)
    increments = [[rng.randint(1, 7) for _ in range(24)] for _ in range(PES)]
    machine = Ultracomputer(MachineConfig(n_pes=PES, kernel="batch"))
    for pe in range(PES):
        machine.spawn(barrier_program, increments[pe], 100)
    result = machine.run()
    assert result.requests_issued == 24 * PES
    for label in ("Message", "WaitRecord", "replace", "translate", "apply"):
        assert counts[label] == 0, (label, counts[label])
    # pinned: one record per reply the program driver pops
    assert counts["ReplyRecord"] == result.requests_issued


@pytest.mark.parametrize("knobs", [
    {}, {"instrument": True, "trace_capacity": 4096},
], ids=["plain", "instrumented"])
def test_no_switch_objects_until_read(monkeypatch, knobs):
    """A 4096-PE batch run of uniform traffic builds no ``Switch`` until
    the first public read, which builds all 12 stages of 2048."""
    built = collections.Counter()
    init = Switch.__init__

    def counted(self, *args, **kwargs):
        built["Switch"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Switch, "__init__", counted)
    machine = Ultracomputer(MachineConfig(n_pes=PES, kernel="batch", **knobs))
    machine.attach_driver(SyntheticTrafficDriver(
        machine, TrafficSpec(rate=0.05, pattern="uniform", seed=1)))
    machine.run_cycles(20)
    payload = machine.stats().to_dict()
    assert payload["requests_issued"] > 0, payload["requests_issued"]
    assert built["Switch"] == 0
    machine.network
    assert built["Switch"] == 12 * 2048
