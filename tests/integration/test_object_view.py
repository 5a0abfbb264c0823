"""The batch kernel's object view is built on demand.

Under the batch kernel the arrays are authoritative, and the switch,
queue and wait-buffer objects are only a view of them.  An
uninstrumented batch machine therefore builds its switch rows on the
first public read (``networks``, ``network``, ``mnis``,
``quiescent()``), and the write-back that follows carries every change
since cycle 0:

* **Nothing is built unread.**  ``run``, ``run_cycles``, ``stats()``,
  ``to_dict()`` and a quiescence timeout construct no switch, queue or
  wait-buffer object (counted by wrapping their constructors).
* **A late first read is exact.**  The view a first read builds at an
  arbitrary cycle equals dense's at that cycle, queue by queue, port by
  port and record by record, on every fabric, and the arrays rebuilt
  from it equal the kernel's.
* **An early reader still counts.**  Traffic offered through
  ``machine.network`` before the first step is read into the arrays.
* **The wiring is resolved once per size.**  Machines of one topology,
  size and arity share immutable wiring tables.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from helpers import assert_mirror_matches_rebuild

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

    def test_instrumented_batch_builds_eagerly(self, built):
        """Its switches register their instruments when built."""
        Ultracomputer(MachineConfig(n_pes=16, kernel="batch", instrument=True))
        assert built["Switch"] == 32


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


def full_view(machine):
    """Every switch's queues (slots and counters), output ports, wait
    buffers and counters, and the stage-delay counters, per copy."""
    copies = []
    for network in machine.networks:
        switches = []
        for row in network.stages:
            for sw in row:
                queues = [(
                    [(s.message.tag, s.message.op, list(s.message.digits),
                      s.message.combine_depth, s.already_combined,
                      s.message.enqueued_cycle) for s in q._slots],
                    q.used_packets, q.peak_packets, q.total_inserted,
                    q.total_combined,
                ) for q in sw.to_mm]
                queues += [(
                    [(s.message.tag, s.message.op, list(s.message.digits),
                      s.message.value, s.message.packets) for s in q._slots],
                    q.used_packets, q.peak_packets, q.total_inserted,
                    q.total_combined,
                ) for q in sw.to_pe]
                ports = [(p.busy_until, p.messages_sent)
                         for p in sw.mm_ports + sw.pe_ports]
                waits = [({
                    tag: [(r.key_tag, r.plan, r.new_message.tag,
                           list(r.new_message.digits), r.new_message.op,
                           r.new_message.combine_depth, r.stage,
                           r.created_cycle) for r in stack]
                    for tag, stack in wb._records.items()
                }, wb.occupancy, wb.peak_occupancy, wb.total_insertions)
                    for wb in sw.wait_buffers]
                switches.append((sw.stage, sw.index, queues, ports, waits,
                                 dataclasses.astuple(sw.stats)))
        copies.append((switches, list(network.stage_delay_sum),
                       list(network.stage_delay_count)))
    return copies


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
        view = full_view(batch)
        assert view == full_view(dense)
        assert_mirror_matches_rebuild(batch.kernel)
        assert batch.run().to_dict() == dense.run().to_dict()
        assert full_view(batch) == full_view(dense)

    def test_a_cut_holds_records_and_traffic(self):
        """The cuts above meet the state a view carries: queued
        requests and replies, and wait records."""
        machine = Ultracomputer(MachineConfig(n_pes=64, kernel="batch"))
        machine.spawn_many(64, mixed, 5, 19)
        machine.run_cycles(19)
        network = machine.network
        assert network.pending_messages() > 0
        assert network.pending_wait_records() > 0


class TestEarlyReader:
    def test_traffic_offered_before_the_first_step_is_read(self):
        """A request offered through ``machine.network`` before any step
        reaches the arrays, and the run ends as dense's does."""
        results = []
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(n_pes=16, kernel=kernel))
            machine.spawn_many(15, mixed, 3, 1)
            # PE 15 runs no program: its request goes in by hand, as
            # the PNI's phase 3 would have offered it
            pni = machine.pnis[15]
            pni.issue(FetchAdd(0, 100), 0)
            message = pni.outbound.popleft()
            machine._pni_ready.discard(15)
            machine._copy_by_tag[message.tag] = 0
            assert machine.network.offer_request(15, message)
            if kernel == "batch":
                machine.kernel._ensure_state()
                assert machine.kernel._states[0].fwd_grid.tot == 1
            results.append((machine.run().to_dict(), machine.peek(0)))
        assert results[0] == results[1]
        assert results[1][1] >= 100
        assert results[1][0]["replies_received"] == 15 * 3 + 1


class TestWiringMemo:
    def test_one_size_shares_the_tables(self):
        a = Ultracomputer(MachineConfig(n_pes=64, kernel="batch"))
        b = Ultracomputer(MachineConfig(n_pes=64, kernel="dense"))
        assert a._networks[0].forward_targets is b._networks[0].forward_targets
        assert a._networks[0].return_targets is b._networks[0].return_targets

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
