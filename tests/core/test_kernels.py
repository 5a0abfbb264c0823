"""Unit tests for the simulation kernels and the component wake contract."""

from __future__ import annotations

import pytest

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load
from repro.core.batch_kernel import BatchKernel
from repro.core.scheduler import KERNELS, DenseKernel, make_kernel
from repro.memory.module import MemoryModule
from repro.network.interfaces import MNI
from repro.network.message import Message
from repro.network.switch import Switch
from repro.network.topology import OmegaTopology


def _pni_idle(pni) -> bool:
    """No request queued at, or in flight from, the PNI."""
    return not pni.outbound and pni.outstanding() == 0


class TestSelection:
    def test_default_is_dense(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))
        assert type(machine.kernel) is DenseKernel
        assert machine.kernel.name == "dense"

    def test_event_selected_by_config(self):
        """``event`` is an alias kept for the benchmark's kernel table:
        it builds dense's class."""
        machine = Ultracomputer(MachineConfig(n_pes=4, kernel="event"))
        assert type(machine.kernel) is DenseKernel
        assert KERNELS["event"] is DenseKernel

    def test_batch_shares_the_run_loop(self):
        """One ``run`` and one ``run_cycles`` serve both kernels; batch
        supplies only the hooks they call."""
        assert BatchKernel.run is DenseKernel.run
        assert BatchKernel.run_cycles is DenseKernel.run_cycles
        assert BatchKernel._fast_forward is DenseKernel._fast_forward

    def test_registry_contents(self):
        assert set(KERNELS) == {"batch", "dense", "event"}

    def test_unknown_kernel_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            Ultracomputer(MachineConfig(n_pes=4, kernel="sparse"))

    def test_make_kernel_rejects_unknown_name(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("warp", machine)


class TestWakeContract:
    def test_fresh_machine_components_idle(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))
        for network in machine.networks:
            assert not network.has_traffic()
            assert network.pending_messages() == 0
        assert all(_pni_idle(pni) for pni in machine.pnis)
        assert all(mni.pending == 0 for mni in machine.mnis)
        for network in machine.networks:
            for row in network.stages:
                for switch in row:
                    assert switch.pending_messages() == 0
        for module in machine.memory.modules:
            assert module.queue_length == 0

    def test_traffic_wakes_and_drain_sleeps(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))

        def program(pe_id):
            yield Load(pe_id)

        machine.spawn_many(4, program)
        machine.step()  # tick 1 primes the generators (op now pending)
        machine.step()  # tick 2 issues the ops into the PNIs
        assert any(not _pni_idle(pni) for pni in machine.pnis)
        machine.run()
        assert all(not network.has_traffic() for network in machine.networks)
        assert all(_pni_idle(pni) for pni in machine.pnis)
        assert all(mni.pending == 0 for mni in machine.mnis)

    def test_next_event_none_on_finished_machine(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))

        def program(pe_id):
            yield Load(0)

        machine.spawn_many(4, program)
        machine.run()
        assert machine.kernel._next_event_cycle() is None

    def test_next_event_skips_compute_gap(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))

        def program(pe_id):
            yield 50
            yield FetchAdd(0, 1)

        machine.spawn_many(4, program)
        machine.step()  # prime the generators (compute_remaining = 50)
        nxt = machine.kernel._next_event_cycle()
        # The interesting tick is the one whose decrement reaches zero.
        assert nxt == machine.cycle + 50 - 1


class TestStaleWakeAfterRefusedOffer:
    """The wake contract consulted *immediately* after a refused offer.

    A refused offer must leave the target component's state and
    next-event answer exactly as they were before the offer: the
    fast-forward reads them in the same tick, and any half-committed state would
    either lose the retry (sleeping past it) or spin forever."""

    @staticmethod
    def _request(mm, topo, tag):
        return Message(
            op=Load(0),
            mm=mm,
            offset=0,
            origin=0,
            tag=tag,
            digits=topo.route_digits(mm),
        )

    def test_switch_idle_state_unchanged_by_refusal(self):
        topo = OmegaTopology(8, 2)
        switch = Switch(2, stage=0, index=0, queue_capacity_packets=1)
        accepted = self._request(0b100, topo, tag=1)
        refused = self._request(0b110, topo, tag=2)
        assert switch.offer_forward(0, accepted, cycle=0)
        queued_before = [len(q) for q in switch.to_mm + switch.to_pe]
        assert not switch.offer_forward(0, refused, cycle=0)
        # Still exactly one queued message: the accepted one, and
        # nothing phantom queued for the refused one.
        assert [len(q) for q in switch.to_mm + switch.to_pe] == queued_before
        assert switch.pending_messages() == 1
        assert sum(len(q) for q in switch.to_mm) == 1
        assert any(q.head() is accepted for q in switch.to_mm)

    def test_empty_switch_stays_idle_after_refusal(self):
        topo = OmegaTopology(8, 2)
        switch = Switch(2, stage=0, index=0, wait_buffer_capacity=0,
                        queue_capacity_packets=0)
        refused = self._request(0b100, topo, tag=1)
        assert switch.pending_messages() == 0
        assert not switch.offer_forward(0, refused, cycle=0)
        # The refusal must not have queued anything: ticking the switch
        # would be a no-op, and the kernels may legitimately skip it.
        assert switch.pending_messages() == 0
        assert switch.pending_wait_records() == 0

    def test_mni_refusal_leaves_idle_and_no_event(self):
        module = MemoryModule(0)
        mni = MNI(module, inbound_capacity_packets=0)
        topo = OmegaTopology(8, 2)
        refused = self._request(0, topo, tag=7)
        assert mni.pending == 0
        assert not mni.offer_inbound(refused, cycle=3)
        assert mni.pending == 0
        assert not mni.tick(3)  # nothing inbound or in service
        assert mni.next_event_cycle(3) is None


class TestRunCyclesParity:
    def test_event_run_cycles_lands_on_exact_cycle(self):
        """The shared fast-forwarding ``run_cycles`` stops on the exact
        cycle asked for, mid-gap, on both kernels."""
        for kernel in ("dense", "batch"):
            machine = Ultracomputer(MachineConfig(n_pes=4, kernel=kernel))

            def program(pe_id):
                yield 30
                yield FetchAdd(0, 1)

            machine.spawn_many(4, program)
            machine.run_cycles(10)
            assert machine.cycle == 10
            machine.run_cycles(7)
            assert machine.cycle == 17

    def test_single_step_never_fast_forwards(self):
        machine = Ultracomputer(MachineConfig(n_pes=4))

        def program(pe_id):
            yield 100
            yield FetchAdd(0, 1)

        machine.spawn_many(4, program)
        for expected in range(1, 6):
            machine.step()
            assert machine.cycle == expected
