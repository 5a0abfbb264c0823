"""The networks' stage-delay counters and the switches the dense kernel visits.

Two contracts of the activity-masked object kernel:

* **The counters are the spans.**  Every network copy counts its
  forward stage delays as ``(sum, count)`` per stage
  (``MultistageNetwork.stage_delay_sum``/``stage_delay_count``), so an
  uninstrumented run can report what a traced run's spans give
  (``SpanSet.stage_delays``): the gap from a request's enqueue at one
  stage to its acceptance by the next — an enqueue, or its absorption
  by a combine — with the stage it leaves the grid from never counted.
  Checked on every kernel, both batch message paths, every fabric, two
  network copies and a combining hot spot, traced and untraced, against
  the spans of a traced run.
* **Dense visits only awake switches and busy MNIs.**  The exact
  ``tick_forward`` and ``tick_return`` call counts of one
  ``fig7.cross_topology`` point are pinned; the every-switch loop
  (``tests/eager_kernel.py``) makes 19,584 / 48,800 / 68,768 calls per
  direction on the same points.  So are the ``MNI.tick`` calls, which
  the every-component loop makes 16 per cycle (9,792 / 9,760 / 9,824).
"""

from __future__ import annotations

import random

import pytest
from eager_kernel import EAGER, eager_kernel

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd
from repro.exp.experiments import fig7_cross_topology
from repro.network.interfaces import MNI
from repro.network.multistage import pooled_stage_delays
from repro.network.switch import Switch
from repro.obs.spans import reconstruct_spans
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

TOPOLOGIES = ["omega", "hypercube", "mesh"]
#: "batch-vector" is the batch kernel with every stage step, injection
#: and combine forced through its vectorized path
KERNELS = [EAGER, "dense", "event", "batch", "batch-vector"]


@pytest.fixture(autouse=True, scope="module")
def _eager_oracle():
    with eager_kernel():
        yield


def _hotspot(pe_id, seed):
    """Every PE fetch-and-adds one cell with short seeded gaps, so
    requests meet and combine at every stage."""
    rng = random.Random(seed * 131 + pe_id)
    total = 0
    for _ in range(6):
        yield rng.randrange(1, 4)
        total += yield FetchAdd(0, 1)
    return total


def _run(kernel, topology, workload, instrument):
    vectorized = kernel == "batch-vector"
    machine = Ultracomputer(MachineConfig(
        n_pes=16,
        topology=topology,
        kernel="batch" if vectorized else kernel,
        copies=2 if workload == "uniform" else 1,
        instrument=instrument,
        trace_capacity=1 << 16 if instrument else 0,
    ))
    if vectorized:
        machine.kernel._ensure_state()
        for plane in machine.kernel._states:
            plane.vector_min = 1
    if workload == "uniform":
        driver = SyntheticTrafficDriver(
            machine, TrafficSpec(rate=0.2, pattern="uniform", seed=3))
        machine.attach_driver(driver)
        machine.run_cycles(100)
        driver.drain(400)
    else:
        machine.spawn_many(16, _hotspot, 5)
        machine.run()
    return machine


def _span_delays(machine):
    """``stage -> (sum, count)`` from the spans of a traced run."""
    result = machine.stats()
    spans = reconstruct_spans(result.trace, dropped=result.trace_dropped)
    return {stage: (sum(delays), len(delays))
            for stage, delays in sorted(spans.stage_delays().items())}


@pytest.mark.parametrize("workload", ["uniform", "hotspot"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_counters_match_the_spans(topology, workload):
    traced = _run(EAGER, topology, workload, instrument=True)
    expected = _span_delays(traced)
    result = traced.stats()
    spans = reconstruct_spans(result.trace, dropped=result.trace_dropped)
    # The workloads cover what they are for.
    assert expected
    if workload == "hotspot":
        assert any(span.combined_stage for span in spans), "no combine past stage 0"
    if topology != "omega":
        last = traced.topology.stages - 1
        assert any(span.hops and not span.combined and span.hops[-1].stage < last
                   for span in spans), "no request left the grid mid-way"
    for kernel in KERNELS:
        for instrument in (True, False):
            machine = _run(kernel, topology, workload, instrument)
            assert machine.stats().to_dict()["combines"] == result.combines
            assert pooled_stage_delays(machine.networks) == expected, (
                f"{kernel} (instrument={instrument}) counts other stage delays")


#: (tick_forward, tick_return) calls of the dense kernel on the 16-PE
#: rate-0.05 seed-1 ``fig7.cross_topology`` point, per fabric
PINNED_VISITS = {
    "omega": (1891, 2091),
    "hypercube": (1447, 1560),
    "mesh": (1692, 1785),
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dense_visits_only_awake_switches(topology, monkeypatch):
    calls = {"forward": 0, "return": 0}
    tick_forward, tick_return = Switch.tick_forward, Switch.tick_return

    def counted_forward(self, cycle, deliver):
        calls["forward"] += 1
        return tick_forward(self, cycle, deliver)

    def counted_return(self, cycle, deliver):
        calls["return"] += 1
        return tick_return(self, cycle, deliver)

    monkeypatch.setattr(Switch, "tick_forward", counted_forward)
    monkeypatch.setattr(Switch, "tick_return", counted_return)
    fig7_cross_topology({"pes": 16, "rate": 0.05, "seed": 1,
                         "topology": topology, "kernel": "dense"})
    assert (calls["forward"], calls["return"]) == PINNED_VISITS[topology]


#: ``MNI.tick`` calls of the dense kernel on the same points
PINNED_MNI_TICKS = {"omega": 1386, "hypercube": 1380, "mesh": 1383}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dense_ticks_only_busy_mnis(topology, monkeypatch):
    calls = 0
    tick = MNI.tick

    def counted(self, cycle):
        nonlocal calls
        calls += 1
        return tick(self, cycle)

    monkeypatch.setattr(MNI, "tick", counted)
    fig7_cross_topology({"pes": 16, "rate": 0.05, "seed": 1,
                         "topology": topology, "kernel": "dense"})
    assert calls == PINNED_MNI_TICKS[topology]
