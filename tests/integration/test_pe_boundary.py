"""The PE boundary: route digits as network state, replies in one pass.

A PNI records each request as a row and makes no digit list.  Under
dense the request's Message carries its topology's interned route
tuple, and the network first offered it rewrites a private copy of the
digits (``MultistageNetwork.offer_request``); the batch plane admits
the row and writes the interned digits into its arrays.  Replies reach
the PNIs through the one delivery rule, ``interfaces.deliver_replies``,
which ``PNI.deliver`` applies to one reply and the batch kernel to a
whole exit batch.

Each check here compares against the every-component oracle
(``tests/eager_kernel.py``) or against per-reply delivery, and the work
counts are pinned: a batch run makes no ``route_digits`` call, and each
reply is delivered by exactly one application of the rule.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from eager_kernel import EAGER, eager_kernel

import repro.core.batch_kernel as batch_kernel
import repro.network.interfaces as interfaces
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store
from repro.network.message import Message
from repro.network.topologies import DirectTopology
from repro.network.topology import OmegaTopology, make_topology
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

#: offered cycles of open-loop traffic, then the drain bound in steps
OFFERED = 20
DRAIN = 400
TOPOLOGIES = ["omega", "hypercube", "mesh"]


def fa_barrier(pe_id, n_pes, rounds=1):
    """The paper's fetch-and-add barrier: each round every PE counts
    itself in on cell 0, then loads it until all ``n_pes`` have."""
    for target in range(n_pes, (rounds + 1) * n_pes, n_pes):
        yield 1 + pe_id % 5
        yield FetchAdd(0, 1)
        while (yield Load(0)) < target:
            yield 8
    return pe_id


@pytest.fixture(autouse=True, scope="module")
def _eager_oracle():
    with eager_kernel():
        yield


def _machine(kernel, topology="omega", n_pes=256, **knobs):
    return Ultracomputer(MachineConfig(n_pes=n_pes, topology=topology,
                                       kernel=kernel, **knobs))


def _run(kernel, topology, workload, n_pes=256, **knobs):
    machine = _machine(kernel, topology, n_pes, **knobs)
    if workload == "barrier":
        machine.spawn_many(n_pes, fa_barrier, n_pes)
        return machine, machine.run()
    driver = SyntheticTrafficDriver(
        machine, TrafficSpec(rate=0.3, pattern="uniform", seed=1))
    machine.attach_driver(driver)
    machine.run_cycles(OFFERED)
    driver.drain(DRAIN)
    assert all(pni.outstanding() == 0 for pni in machine.pnis)
    return machine, machine.stats()


@functools.lru_cache(maxsize=None)
def _reference(topology, workload):
    return _run(EAGER, topology, workload)[1].to_dict()


@pytest.fixture
def route_digits_calls(monkeypatch):
    """Count ``route_digits`` calls on every registered fabric."""
    calls = []
    for cls in (OmegaTopology, DirectTopology):
        original = cls.route_digits

        def counting(self, destination, source=0, _original=original):
            calls.append((destination, source))
            return _original(self, destination, source)

        monkeypatch.setattr(cls, "route_digits", counting)
    return calls


@pytest.mark.parametrize("workload", ["uniform", "barrier"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_batch_makes_no_digit_list_and_matches_the_oracle(
        route_digits_calls, topology, workload):
    machine, result = _run("batch", topology, workload)
    assert result.replies_received == result.requests_issued > 0
    assert route_digits_calls == []
    assert result.to_dict() == _reference(topology, workload)


def _in_flight(machine):
    """Every request and reply the dense object view holds past the
    PNIs: switch queues and wait buffers, and the MNIs."""
    for network in machine.networks:
        for row in network.stages:
            for switch in row:
                for queue in switch.to_mm + switch.to_pe:
                    for slot in queue._slots:
                        yield slot.message
                for wait_buffer in switch.wait_buffers:
                    for records in wait_buffer._records.values():
                        for record in records:
                            yield record.new_message
    for mni in machine.mnis:
        for message, _ in mni._inbound:
            yield message
        if mni._in_service is not None:
            yield mni._in_service[0]
        yield from mni.outbound


def _check_digit_ownership(machine):
    """Every in-flight message holds a list of its own; a request still
    queued at its PNI holds the interned tuple, or, once a stage-0 offer
    refused it, a list no other message shares.  Returns the number of
    in-flight messages and of refused requests seen."""
    topo = machine.topology
    messages = list(_in_flight(machine))
    assert all(type(m.digits) is list for m in messages)
    refused = 0
    for pni in machine.pnis:
        for request in pni.outbound:
            if type(request.digits) is list:
                messages.append(request)
                refused += 1
            else:
                assert request.digits is topo.route_tuple(request.mm, pni.pe_id)
    assert len({id(m.digits) for m in messages}) == len(messages), \
        "two messages share a digit list"
    return len(messages) - refused, refused


def _check_interned_routes(machine, topology, n_pes):
    topo = machine.topology
    fresh = make_topology(topology, n_pes, 2)
    for source in range(n_pes):
        for destination in range(n_pes):
            route = topo.route_tuple(destination, source)
            assert type(route) is tuple
            assert route == fresh.route_tuple(destination, source)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dense_copies_the_interned_route_on_first_offer(topology):
    machine = _machine("dense", topology, n_pes=64)
    machine.spawn_many(64, fa_barrier, 64)
    seen = 0
    while not machine.quiescent():
        machine.step()
        seen += _check_digit_ownership(machine)[0]
    assert seen > 0
    _check_interned_routes(machine, topology, 64)


@pytest.mark.parametrize("topology", ["omega", "hypercube"])
def test_dense_refused_request_keeps_its_private_list(topology):
    """Without combining, four-packet queues refuse many stage-0 offers
    under hot-spot traffic (the mesh's refuse none at this load): the
    refused request keeps the list made for its first offer, and the
    retry neither shares it nor touches the interned route."""
    machine = _machine("dense", topology, n_pes=64, queue_capacity_packets=4,
                       combining=False)
    driver = SyntheticTrafficDriver(machine, TrafficSpec(
        rate=1.0, pattern="hotspot", hot_fraction=0.5, seed=1))
    machine.attach_driver(driver)
    seen = refused = 0
    for _ in range(OFFERED):
        machine.step()
        in_flight, held = _check_digit_ownership(machine)
        seen += in_flight
        refused += held
    driver.drain(DRAIN)
    assert all(pni.outstanding() == 0 for pni in machine.pnis)
    assert seen > 0 and refused > 0
    _check_interned_routes(machine, topology, 64)


def test_plane_resident_requests_are_rows(monkeypatch):
    """Under batch a request in the plane is its PNI's row and no
    ``Message`` is built (nothing writes the object view back during a
    run): for every forward-queue resident the plane holds the very row
    the PNI keeps as outstanding, and the digits of the stages still
    ahead are the topology's interned route."""
    built = []
    init = Message.__init__
    monkeypatch.setattr(Message, "__init__", lambda self, *args, **kwargs: (
        built.append(1), init(self, *args, **kwargs))[1])
    machine = _machine("batch", "omega", n_pes=256, queue_capacity_packets=6)
    driver = SyntheticTrafficDriver(
        machine, TrafficSpec(rate=0.5, pattern="uniform", seed=1))
    machine.attach_driver(driver)
    machine.run_cycles(OFFERED)
    assert built == []
    topo = machine.topology
    (plane,) = machine.kernel._states
    resident = 0
    for lane in plane.fwd:
        ids, _ = lane.contents(np.flatnonzero(lane.len))
        for i in ids.tolist():
            row = plane.rows[i]
            assert row is machine.pnis[row.origin]._outstanding_tags[row.tag]
            ahead = slice(lane.stage + 1, None)
            assert (plane.dig[i, ahead].tolist()
                    == list(topo.route_tuple(row.mm, row.origin)[ahead]))
            resident += 1
    assert resident > 0


# ----------------------------------------------------------------------
# exit-batch delivery against per-reply PNI.deliver
# ----------------------------------------------------------------------
def _issued(instrument):
    """A batch machine whose PNIs hold outstanding requests (some PEs
    several), each assigned a network copy as ``_inject_heads`` does;
    returns it and the replies as (pe, tag, value)."""
    machine = _machine("batch", n_pes=16, copies=2, instrument=instrument)
    replies = []
    for pe in range(16):
        pni = machine.pnis[pe]
        ops = [FetchAdd(pe, 1), Store(100 + pe, pe), Load(200 + pe)][:1 + pe % 3]
        for n, op in enumerate(ops):
            tag = pni.issue(op, cycle=pe)
            machine._copy_for_request(pni._outstanding_tags[tag])
            replies.append((pe, tag, None if type(op) is Store else 10 * pe + n))
    machine.cycle = 40
    return machine, replies


def _state(machine):
    pnis = machine.pnis
    return (
        [list(pni.completed) for pni in pnis],
        [(pni.requests_issued, pni.replies_received, pni.total_round_trip,
          pni.outstanding(), sorted(pni._outstanding_cells)) for pni in pnis],
        sorted(machine._pni_replied),
        machine._copy_by_tag,
        list(machine.instrumentation.snapshot()),
        machine.instrumentation.trace.events()
        if machine.instrumentation.trace is not None else None,
    )


@pytest.mark.parametrize("instrument", [False, True])
def test_exit_batch_delivery_equals_per_reply_delivery(instrument):
    per_reply, replies = _issued(instrument)
    batch, same = _issued(instrument)
    assert same == replies
    # Reply order mixes the PEs, as an exit batch does.
    replies = replies[::2] + replies[1::2]
    for pe, tag, value in replies:
        assert per_reply.pnis[pe].deliver(tag, value, per_reply.cycle)
        per_reply._copy_by_tag.pop(tag, None)
    pes, tags, values = map(list, zip(*replies))
    batch.kernel._deliver(pes, tags, values)
    assert _state(batch) == _state(per_reply)
    assert all(pni.outstanding() == 0 for pni in batch.pnis)
    assert batch._copy_by_tag == {}


def test_unknown_tag_raises_the_same_error():
    message = "PNI 3 received reply with unknown tag 999"
    machine, _ = _issued(False)
    with pytest.raises(AssertionError, match=message):
        machine.pnis[3].deliver(999, 0, machine.cycle)
    machine, _ = _issued(False)
    with pytest.raises(AssertionError, match=message):
        machine.kernel._deliver([3], [999], [0])


def test_instrumented_batch_trace_equals_dense():
    results = []
    for kernel in ("dense", "batch"):
        machine = _machine(kernel, n_pes=64, instrument=True,
                           trace_capacity=1 << 16)
        machine.spawn_many(64, fa_barrier, 64)
        results.append(machine.run())
    dense, batch = results
    assert batch.trace and batch.trace == dense.trace
    assert batch.to_dict() == dense.to_dict()


# ----------------------------------------------------------------------
# pinned work counts
# ----------------------------------------------------------------------
def test_each_reply_is_one_application_of_the_rule(monkeypatch):
    """A seed-1 64-PE batch run delivers every reply as one row of an
    application of the delivery rule (``interfaces.deliver_replies``),
    a whole exit batch per ``_deliver``, and makes no per-reply
    ``PNI.deliver`` call."""
    applied, batches, single = [], [], []
    rule = batch_kernel.deliver_replies
    exit_batch = batch_kernel.BatchKernel._deliver
    deliver = interfaces.PNI.deliver
    monkeypatch.setattr(batch_kernel, "deliver_replies",
                        lambda pnis, tags, *a: applied.append(tags)
                        or rule(pnis, tags, *a))
    monkeypatch.setattr(batch_kernel.BatchKernel, "_deliver",
                        lambda self, *a: batches.append(a) or exit_batch(self, *a))
    monkeypatch.setattr(interfaces.PNI, "deliver",
                        lambda self, *a: single.append(a) or deliver(self, *a))
    machine = _machine("batch", n_pes=64)
    driver = SyntheticTrafficDriver(
        machine, TrafficSpec(rate=0.3, pattern="uniform", seed=1))
    machine.attach_driver(driver)
    machine.run_cycles(OFFERED)
    driver.drain(DRAIN)
    result = machine.stats()
    replies = sum(map(len, applied))
    assert replies == result.replies_received == result.requests_issued
    assert [len(pes) for pes, _, _ in batches] == list(map(len, applied))
    assert single == []
    # pinned: 342 replies in 41 exit batches
    assert (len(batches), replies) == (41, 342)


def test_run_ends_without_writing_the_object_view_back(monkeypatch):
    """``BatchKernel.run`` decides termination from its arrays: the
    run flushes no plane, yet the machine is quiescent afterwards."""
    flushes = []
    flush = batch_kernel._MessagePlane.flush
    monkeypatch.setattr(batch_kernel._MessagePlane, "flush",
                        lambda self: flushes.append(self) or flush(self))
    machine = _machine("batch", n_pes=64)
    machine.spawn_many(64, fa_barrier, 64)
    machine.run()
    assert flushes == []
    assert machine.quiescent()
    assert len(flushes) == 1
