"""The batch kernel's object view is built on demand and never read back.

Under the batch kernel the arrays are authoritative, and the switch,
queue and wait-buffer objects are only a view of them.  A batch
machine, instrumented or not, therefore builds its switch rows on the
first public read (``networks``, ``network``, ``mnis``,
``quiescent()``), and the write-back that follows carries every change
since cycle 0:

* **Nothing is built unread.**  ``run``, ``run_cycles``, ``stats()``,
  ``to_dict()`` and a quiescence timeout construct no switch, queue or
  wait-buffer object (counted by wrapping their constructors), and the
  metrics snapshot keeps an eager build's order.
* **Every read is exact.**  The view a first read builds at an
  arbitrary cycle, and each later read's incremental write-back, equal
  dense's at that cycle, queue by queue, port by port and record by
  record, on every fabric, instrumented or not.
* **The view is one-way.**  A message offered through the view (to a
  switch or an MNI) would never reach the arrays, so the next step
  refuses it, before the first step or mid-run; dense takes it.
* **The wiring is resolved once per size.**  Machines of one topology,
  size and arity share immutable wiring tables.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from helpers import object_view

import repro.network.multistage as multistage
from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store
from repro.network import systolic_queue, wait_buffer
from repro.network.switch import Switch
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec

#: the classes of the switch object graph
VIEW_CLASSES = (Switch, systolic_queue.CombiningQueue,
                systolic_queue.SystolicQueue, wait_buffer.WaitBuffer)


@pytest.fixture
def built(monkeypatch):
    """Counts of the view objects constructed, by class name."""
    counts = dict.fromkeys((cls.__name__ for cls in VIEW_CLASSES), 0)
    for cls in VIEW_CLASSES:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def barrier(pe_id, increments, gap):
    fetched = []
    for inc in increments:
        yield gap
        fetched.append((yield FetchAdd(0, inc)))
    return fetched


def mixed(pe_id, rounds, seed):
    """A hot F&A cell, the same cell loaded, and private stores."""
    rng = random.Random((seed << 16) | pe_id)
    acc = 0
    for i in range(rounds):
        yield rng.randrange(1, 6)
        choice = rng.randrange(4)
        if choice < 2:
            acc += yield FetchAdd(0, pe_id + 1)
        elif choice == 2:
            acc += yield Load(0)
        else:
            yield Store(64 + pe_id * 4 + (i % 4), acc)
    return acc


class TestNothingBuiltUnread:
    def test_dense_builds_eagerly(self, built):
        """The counters see an eager build."""
        Ultracomputer(MachineConfig(n_pes=16, kernel="dense"))
        assert built["Switch"] == 32
        assert built["CombiningQueue"] == 4 * 32
        assert built["WaitBuffer"] == 2 * 32

    def test_uniform_traffic_run(self, built):
        machine = Ultracomputer(MachineConfig(n_pes=256, kernel="batch"))
        driver = SyntheticTrafficDriver(
            machine, TrafficSpec(rate=0.05, pattern="uniform", seed=3))
        machine.attach_driver(driver)
        machine.run_cycles(60)
        driver.spec = dataclasses.replace(driver.spec, rate=0.0)
        payload = machine.run().to_dict()
        assert payload["requests_issued"] > 0
        assert payload["replies_received"] == payload["requests_issued"]
        assert machine.stats().to_dict() == payload
        assert not any(built.values()), built

    def test_barrier_run(self, built):
        rng = random.Random(5)
        machine = Ultracomputer(MachineConfig(n_pes=256, kernel="batch"))
        for pe in range(256):
            machine.spawn(barrier, [rng.randint(1, 7) for _ in range(3)], 20)
        result = machine.run()
        assert result.combines > 0 and result.decombines == result.combines
        result.to_dict()
        assert not any(built.values()), built
        # the first public read builds the rows, whole
        assert machine.quiescent()
        assert built["Switch"] == 8 * 128

    def test_instrumented_batch_defers_too(self, built):
        """The network registers the per-stage instruments, so an
        instrumented run builds nothing either, and its metrics (in
        snapshot order) and trace equal dense's."""
        rng = random.Random(7)
        increments = [[rng.randint(1, 7) for _ in range(3)] for _ in range(64)]
        results, orders = [], []
        for kernel in ("batch", "dense"):
            machine = Ultracomputer(MachineConfig(
                n_pes=64, kernel=kernel, instrument=True, trace_capacity=1 << 12))
            for pe in range(64):
                machine.spawn(barrier, increments[pe], 5)
            results.append(machine.run().to_dict())
            orders.append([(s.name, s.labels) for s in
                           machine.instrumentation.snapshot().samples])
            if kernel == "batch":
                assert not any(built.values()), built
                machine.network
                assert built["Switch"] == 6 * 32
                assert [(s.name, s.labels) for s in machine.instrumentation
                        .snapshot().samples] == orders[0]
        assert results[0] == results[1]
        assert orders[0] == orders[1]
        assert results[0]["combines"] > 0


class TestTimeout:
    def test_timeout_message_matches_dense_without_a_build(self, built):
        messages = {}
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(n_pes=64, kernel=kernel))
            for pe in range(64):
                machine.spawn(barrier, [1, 2], 3)
            if kernel == "batch":
                for name in built:
                    built[name] = 0
            with pytest.raises(RuntimeError) as raised:
                machine.run(max_cycles=8)
            messages[kernel] = str(raised.value)
        assert messages["batch"] == messages["dense"]
        assert "messages in flight" in messages["batch"]
        assert not messages["batch"].endswith("(0 messages in flight)")
        assert not any(built.values()), built


FABRICS = [("omega", 2), ("omega", 4), ("hypercube", 2), ("mesh", 2)]


class TestLateFirstRead:
    @pytest.mark.parametrize("topology, k", FABRICS,
                             ids=[f"{t}-k{k}" for t, k in FABRICS])
    @pytest.mark.parametrize("capacity", [None, 4])
    @pytest.mark.parametrize("cut", [7, 19, 33])
    def test_first_read_equals_dense(self, built, topology, k, capacity, cut):
        machines = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(
                n_pes=64, k=k, topology=topology, kernel=kernel,
                queue_capacity_packets=capacity, copies=2))
            machine.spawn_many(64, mixed, 5, cut)
            machine.run_cycles(cut)
            machines.append(machine)
        dense, batch = machines
        grid = dense.topology.stages * dense.topology.switches_per_stage
        assert built["Switch"] == 2 * grid  # dense's two copies
        assert object_view(batch) == object_view(dense)
        assert batch.run().to_dict() == dense.run().to_dict()
        assert object_view(batch) == object_view(dense)

    def test_a_cut_holds_records_and_traffic(self):
        """The cuts above meet the state a view carries: queued
        requests and replies, and wait records."""
        machine = Ultracomputer(MachineConfig(n_pes=64, kernel="batch"))
        machine.spawn_many(64, mixed, 5, 19)
        machine.run_cycles(19)
        network = machine.network
        assert network.pending_messages() > 0
        assert network.pending_wait_records() > 0


class TestReadsInTurn:
    @pytest.mark.parametrize("topology, k", FABRICS,
                             ids=[f"{t}-k{k}" for t, k in FABRICS])
    @pytest.mark.parametrize("capacity", [None, 4])
    @pytest.mark.parametrize("instrument", [False, True],
                             ids=["plain", "instrumented"])
    def test_each_read_equals_dense(self, topology, k, capacity, instrument):
        """One batch machine read at cycles 7, 19 and 33 in turn: the
        first read builds the view, the later ones write back only what
        changed since, and each equals dense's view at that cycle."""
        machines = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(
                n_pes=64, k=k, topology=topology, kernel=kernel,
                queue_capacity_packets=capacity, copies=2,
                instrument=instrument,
                trace_capacity=1 << 12 if instrument else 0))
            machine.spawn_many(64, mixed, 5, 9)
            machines.append(machine)
        dense, batch = machines
        for cut in (7, 19, 33):
            for machine in machines:
                machine.run_cycles(cut - machine.cycle)
            assert object_view(batch) == object_view(dense), f"cycle {cut}"
        assert batch.run().to_dict() == dense.run().to_dict()
        assert object_view(batch) == object_view(dense)


def hot_spot(pe_id, rounds):
    for _ in range(rounds):
        yield 1 + pe_id % 3
        yield FetchAdd(0, 1)


def hand_issued(machine, pe=15):
    """A ``FetchAdd(0, 100)`` issued at PE ``pe``'s PNI and taken back
    off its queue, as phase 3 would take it, to be offered by hand
    (on copy 0)."""
    pni = machine.pnis[pe]
    pni.issue(FetchAdd(0, 100), machine.cycle)
    message = pni.outbound.popleft()
    machine._pni_ready.discard(pe)
    machine._copy_by_tag[message.tag] = 0
    return message


def offer_to_network(machine):
    assert machine.network.offer_request(15, hand_issued(machine))


def offer_to_mni(machine):
    """(Its digits are not the switches' amalgam, so its reply could not
    find its way back: only the refusal is checked with it.)"""
    message = hand_issued(machine)
    assert machine.mnis[message.mm].offer_inbound(message, machine.cycle)


OFFERS = [offer_to_network, offer_to_mni]


class TestViewWrites:
    """15 PEs add 1 to cell 0 three times each, and a ``FetchAdd(0,
    100)`` is offered by hand through the object view."""

    def machine(self, kernel):
        machine = Ultracomputer(MachineConfig(n_pes=16, kernel=kernel))
        machine.spawn_many(15, hot_spot, 3)
        return machine

    @pytest.mark.parametrize("after", [0, 5])
    def test_dense_takes_the_offer(self, after):
        machine = self.machine("dense")
        machine.run_cycles(after)
        offer_to_network(machine)
        result = machine.run()
        assert machine.peek(0) == 15 * 3 + 100
        assert result.replies_received == 15 * 3 + 1

    @pytest.mark.parametrize("offer", OFFERS, ids=["network", "mni"])
    def test_batch_refuses_before_step(self, offer):
        machine = self.machine("batch")
        offer(machine)
        with pytest.raises(RuntimeError, match="offered through the object view"):
            machine.step()
        with pytest.raises(RuntimeError, match="offered through the object view"):
            machine.run()

    @pytest.mark.parametrize("offer", OFFERS, ids=["network", "mni"])
    def test_batch_refuses_mid_run(self, offer):
        """Before the refusal the run dropped the request silently and
        ended with cell 0 at 45."""
        machine = self.machine("batch")
        machine.run_cycles(5)
        offer(machine)
        with pytest.raises(RuntimeError, match="offered through the object view"):
            machine.run()

    def test_batch_refuses_a_driver_mid_cycle(self):
        """A driver offering in phase 6 is refused in that very step."""
        machine = self.machine("batch")

        class Offerer:
            def tick(self, cycle):
                if cycle == 3:
                    offer_to_network(machine)

            def done(self):
                return True

        machine.attach_driver(Offerer())
        machine.run_cycles(3)
        with pytest.raises(RuntimeError, match="offered through the object view"):
            machine.step()
        assert machine.cycle == 4


class TestWiringMemo:
    def test_one_size_shares_the_tables(self):
        a = Ultracomputer(MachineConfig(n_pes=64, kernel="batch"))
        b = Ultracomputer(MachineConfig(n_pes=64, kernel="dense"))
        assert a._networks[0].forward_targets is b._networks[0].forward_targets
        assert a._networks[0].return_targets is b._networks[0].return_targets

    def test_planes_of_one_size_share_their_tables(self):
        """The batch planes' lane tables and injection points are
        memoised beside the wiring, read-only."""
        planes = []
        for n_pes in (64, 64, 256):
            machine = Ultracomputer(MachineConfig(n_pes=n_pes, kernel="batch"))
            machine.step()
            planes.append(machine.kernel._states[0])
        a, b, other = planes
        assert a.fwd[0].wire is b.fwd[0].wire
        assert a.ret[-1].wire is b.ret[-1].wire
        assert a.inject_sw is b.inject_sw and a.inject_port is b.inject_port
        assert a.fwd[0].wire is not other.fwd[0].wire
        for table in (a.fwd[0].wire.to, a.ret[0].wire.kinds, a.inject_sw):
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("other", [
        dict(n_pes=256), dict(n_pes=64, k=4), dict(n_pes=64, topology="hypercube"),
        dict(n_pes=64, topology="mesh"),
    ], ids=["size", "arity", "hypercube", "mesh"])
    def test_another_geometry_does_not(self, other):
        a = Ultracomputer(MachineConfig(n_pes=64))
        b = Ultracomputer(MachineConfig(**other))
        assert a._networks[0].forward_targets is not b._networks[0].forward_targets
        assert a._networks[0].return_targets is not b._networks[0].return_targets

    def test_tables_are_immutable(self):
        network = Ultracomputer(MachineConfig(n_pes=16)).network
        for tables in (network.forward_targets, network.return_targets):
            assert type(tables) is tuple
            assert all(type(row) is tuple for row in tables)
            assert all(target is None or type(target) is tuple
                       for row in tables for target in row)
            with pytest.raises(TypeError):
                tables[0][0] = None

    @pytest.mark.parametrize("topology, n_pes", [
        ("omega", 64), ("hypercube", 16), ("mesh", 16)])
    @pytest.mark.parametrize("instrument", [False, True])
    def test_kernels_agree_with_a_memo_another_kernel_filled(
            self, monkeypatch, topology, n_pes, instrument):
        monkeypatch.setattr(multistage, "_WIRING", {})
        results = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(
                n_pes=n_pes, topology=topology, kernel=kernel,
                instrument=instrument, trace_capacity=1 << 12 if instrument else 0))
            assert len(multistage._WIRING) == 1
            machine.spawn_many(n_pes, mixed, 4, 2)
            results.append(machine.run().to_dict())
        assert results[0] == results[1]
