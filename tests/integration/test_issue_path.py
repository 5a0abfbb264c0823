"""The batched issue path against the scalar one.

A driver issues a cycle's requests with one
``Ultracomputer.issue_many`` call; ``PNI.issue`` and ``PNI.can_issue``
are its one-request case.  These checks pin the batched traffic driver
against the scalar per-PE loop (``tests/scalar_traffic.py``) on both
kernels, instrumented with a trace, and pin what a reply record holds:
the op the PE issued, on every kernel.
"""

from __future__ import annotations

import dataclasses

import pytest
from eager_kernel import EAGER, eager_kernel
from scalar_traffic import ScalarTrafficDriver

import repro.core.batch_kernel as batch_kernel
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd
from repro.instrumentation import MetricsRegistry
from repro.network.interfaces import ReplyRecord
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

SEEDS = range(10)
OFFERED = 30
DRAIN = 400

#: (name, machine knobs, traffic knobs): every pattern, a per-PE request
#: limit, window stalls and same-cell conflicts on one hot cell
SCENARIOS = [
    ("uniform", {}, {"rate": 0.3}),
    ("hotspot", {}, {"rate": 0.6, "pattern": "hotspot", "hot_fraction": 0.7}),
    ("stride", {"translation": "hashed"},
     {"rate": 0.4, "pattern": "stride", "stride": 16}),
    ("permutation", {}, {"rate": 0.5, "pattern": "permutation"}),
    ("limited", {}, {"rate": 0.5, "requests_per_pe": 3}),
    ("window", {"max_outstanding": 1}, {"rate": 0.8}),
]


def _traffic(driver_cls, kernel, seed, machine_knobs, traffic_knobs):
    machine = Ultracomputer(MachineConfig(
        n_pes=16, kernel=kernel, instrument=True, trace_capacity=1 << 14,
        **machine_knobs))
    driver = driver_cls(machine, TrafficSpec(seed=seed, **traffic_knobs))
    machine.attach_driver(driver)
    machine.run_cycles(OFFERED)
    driver.drain(DRAIN)
    stats = driver.stats()
    assert all(pni.outstanding() == 0 for pni in machine.pnis)
    return (machine.stats().to_dict(), dataclasses.asdict(stats),
            driver._rng.getstate())


@pytest.mark.parametrize("kernel", ["dense", "batch"])
@pytest.mark.parametrize("name, machine_knobs, traffic_knobs", SCENARIOS,
                         ids=[s[0] for s in SCENARIOS])
def test_batched_driver_matches_the_scalar_loop(kernel, name, machine_knobs,
                                                traffic_knobs):
    blocked = 0
    for seed in SEEDS:
        batched = _traffic(SyntheticTrafficDriver, kernel, seed, machine_knobs,
                           traffic_knobs)
        scalar = _traffic(ScalarTrafficDriver, kernel, seed, machine_knobs,
                          traffic_knobs)
        assert batched == scalar, f"seed {seed}"
        assert batched[0]["requests_issued"] > 0
        blocked += batched[1]["blocked_attempts"]
    if name in ("hotspot", "window"):
        assert blocked > 0  # the refusals are exercised


# ----------------------------------------------------------------------
# what a reply record holds
# ----------------------------------------------------------------------
class Burst:
    """Every PE issues ``FetchAdd(0, 1)`` at cycle 0 (one call), then
    pops its replies; the popped records are kept in pop order."""

    def __init__(self, machine):
        self.machine = machine
        self.records = []
        self.issued = False

    def tick(self, cycle):
        m = self.machine
        if not self.issued:
            n = m.config.n_pes
            tags = m.issue_many(range(n), [FetchAdd(0, 1)] * n, cycle)
            assert None not in tags
            self.issued = True
        for pni in m.pnis:
            while (record := pni.pop_reply()) is not None:
                self.records.append(record)

    def done(self):
        return self.issued and len(self.records) == self.machine.config.n_pes


def _burst(kernel):
    machine = Ultracomputer(MachineConfig(n_pes=64, kernel=kernel))
    burst = Burst(machine)
    machine.attach_driver(burst)
    result = machine.run()
    return burst.records, result


def test_reply_records_hold_the_issued_op_on_every_kernel(monkeypatch):
    """On a one-shot 64-PE ``FetchAdd(0, 1)`` burst combining rewrites
    most requests on their way to memory; every popped record (tag, op,
    value, cycles) is the same on dense, batch (at its default
    threshold and with every step vectorized) and the eager oracle, and
    its op is the one the PE issued."""
    with eager_kernel():
        reference, result = _burst(EAGER)
    assert result.combines > 0
    assert all(type(r) is ReplyRecord and r.op == FetchAdd(0, 1)
               for r in reference)
    assert sorted(r.value for r in reference) == list(range(64))
    assert _burst("dense")[0] == reference
    assert _burst("batch")[0] == reference
    monkeypatch.setattr(batch_kernel._MessagePlane, "vector_min", 1)
    assert _burst("batch")[0] == reference


# ----------------------------------------------------------------------
# instrument look-ups
# ----------------------------------------------------------------------
@pytest.fixture
def lookups(monkeypatch):
    calls = []
    original = MetricsRegistry._get_or_create

    def counting(self, *args, **kwargs):
        calls.append(args[1])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MetricsRegistry, "_get_or_create", counting)
    return calls


@pytest.mark.parametrize("n_pes, kernel, registered", [
    (64, "dense", None), (64, "batch", None), (4096, "batch", 12_362)])
def test_each_instrument_is_looked_up_once(lookups, n_pes, kernel, registered):
    """An instrumented build looks each instrument up exactly once: the
    PNIs' two shared ones are handed to them by the machine."""
    machine = Ultracomputer(MachineConfig(n_pes=n_pes, kernel=kernel,
                                          instrument=True))
    machine.networks  # the object view registers the per-stage instruments
    registry = machine.instrumentation.registry
    assert len(lookups) == len(registry)
    if registered is not None:
        assert len(registry) == registered
