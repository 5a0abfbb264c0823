"""Tests for the PNI and MNI (section 3.4)."""

import pytest

from repro.core.machine import MachineConfig, Ultracomputer
from repro.core.memory_ops import FetchAdd, Load, Store
from repro.memory.hashing import InterleavedTranslation
from repro.memory.module import MemoryModule
from repro.network.interfaces import MNI, OutstandingConflictError, PNI
from repro.network.topology import OmegaTopology


def make_pni(pe=0, n=8, max_outstanding=None):
    return PNI(
        pe,
        OmegaTopology(n, 2),
        InterleavedTranslation(n, 64),
        max_outstanding=max_outstanding,
    )


class TestPNIIssue:
    def test_issue_translates_and_tags(self):
        pni = make_pni()
        tag = pni.issue(Load(9), cycle=0)  # addr 9 -> module 1, offset 1
        message = pni.outbound[0]
        assert message.tag == tag
        assert message.mm == 1
        assert message.offset == 1
        assert message.op.address == 1  # physical offset carried

    def test_same_location_conflict_detected(self):
        pni = make_pni()
        pni.issue(Load(9), cycle=0)
        assert not pni.can_issue(FetchAdd(9, 1))
        with pytest.raises(OutstandingConflictError):
            pni.issue(FetchAdd(9, 1), cycle=0)

    def test_different_locations_pipeline(self):
        pni = make_pni()
        pni.issue(Load(9), 0)
        assert pni.can_issue(Load(10))
        pni.issue(Load(10), 0)
        assert pni.outstanding() == 2

    def test_outstanding_window(self):
        pni = make_pni(max_outstanding=2)
        pni.issue(Load(1), 0)
        pni.issue(Load(2), 0)
        assert not pni.can_issue(Load(3))

    def test_tick_outbound_respects_link_occupancy(self):
        pni = make_pni()
        pni.issue(Store(1, 5), 0)  # 3 packets
        pni.issue(Load(2), 0)
        sent = []
        for cycle in range(6):
            pni.tick_outbound(cycle, lambda pe, msg: sent.append((cycle, msg.tag)) or True)
        assert len(sent) == 2
        assert sent[1][0] - sent[0][0] >= 3

    def test_issue_marks_the_pni_ready(self):
        ready = set()
        pni = PNI(5, OmegaTopology(8, 2), InterleavedTranslation(8, 64),
                  ready=ready)
        assert not ready
        pni.issue(Load(1), 0)
        assert ready == {5}

    def test_machine_pnis_share_one_ready_set(self):
        machine = Ultracomputer(MachineConfig(n_pes=8))
        ready = machine.pnis[0]._ready
        assert all(pni._ready is ready for pni in machine.pnis)
        machine.pnis[3].issue(Load(1), 0)
        machine.pnis[6].issue(Load(2), 0)
        assert ready == {3, 6}


class TestPNIReplies:
    def test_reply_completes_and_frees_cell(self):
        pni = make_pni()
        tag = pni.issue(Load(9), 0)
        message = pni.outbound.popleft()
        reply = message.make_reply(42)
        pni.deliver_reply(reply, cycle=10)
        record = pni.pop_reply()
        assert record.tag == tag
        assert record.value == 42
        assert record.round_trip == 10
        assert pni.can_issue(Load(9))  # cell free again

    def test_unknown_tag_is_protocol_violation(self):
        pni = make_pni()
        tag = pni.issue(Load(9), 0)
        message = pni.outbound.popleft()
        reply = message.make_reply(1)
        reply.tag = tag + 999
        with pytest.raises(AssertionError, match="unknown tag"):
            pni.deliver_reply(reply, 1)

    def test_mean_round_trip(self):
        pni = make_pni()
        pni.issue(Load(1), 0)
        pni.issue(Load(2), 0)
        for cycle in (4, 8):
            message = pni.outbound.popleft()
            pni.deliver_reply(message.make_reply(0), cycle)
        assert pni.mean_round_trip == 6.0


class TestMNI:
    def test_applies_fetch_add_atomically(self):
        module = MemoryModule(0, latency=2)
        module.poke(3, 10)
        mni = MNI(module)
        pni = make_pni()
        pni.issue(FetchAdd(3 * 8, 7), 0)  # addr 24 -> module 0? 24%8=0, offset 3
        message = pni.outbound.popleft()
        assert message.mm == 0 and message.offset == 3
        mni.offer_inbound(message, cycle=0)
        for cycle in range(0, 12):
            mni.tick(cycle)
        assert module.peek(3) == 17
        reply = mni.outbound[0]
        assert reply.value == 10  # the old value returns

    def test_store_reply_is_ack(self):
        module = MemoryModule(0, latency=1)
        mni = MNI(module)
        pni = make_pni()
        pni.issue(Store(0, 5), 0)
        message = pni.outbound.popleft()
        mni.offer_inbound(message, 0)
        for cycle in range(8):
            mni.tick(cycle)
        assert mni.outbound[0].value is None
        assert module.peek(0) == 5

    def test_assembly_delay_for_multipacket(self):
        """A 3-packet request arriving at cycle t starts service no
        earlier than t+2 (the tail must arrive)."""
        module = MemoryModule(0, latency=1)
        mni = MNI(module)
        pni = make_pni()
        pni.issue(Store(0, 5), 0)
        message = pni.outbound.popleft()
        mni.offer_inbound(message, cycle=0)
        mni.tick(0)
        mni.tick(1)
        assert not mni.outbound  # still assembling / serving
        mni.tick(2)
        mni.tick(3)
        assert mni.outbound  # completed at >= 3

    def test_serial_service(self):
        """Two requests to one module are served one at a time — the
        hot-module bottleneck hashing exists to avoid."""
        module = MemoryModule(0, latency=4)
        mni = MNI(module)
        pni = make_pni()
        pni.issue(Load(0), 0)
        pni.issue(Load(8), 0)  # same module 0, offset 1
        for message in list(pni.outbound):
            mni.offer_inbound(message, 0)
        completions = []
        for cycle in range(20):
            before = len(mni.outbound)
            mni.tick(cycle)
            if len(mni.outbound) > before:
                completions.append(cycle)
        assert len(completions) == 2
        assert completions[1] - completions[0] >= 4

    def test_inbound_capacity(self):
        module = MemoryModule(0, latency=1)
        mni = MNI(module, inbound_capacity_packets=3)
        pni = make_pni()
        pni.issue(Store(0, 1), 0)
        pni.issue(Store(8, 2), 0)
        first, second = pni.outbound
        assert mni.offer_inbound(first, 0)
        assert not mni.offer_inbound(second, 0)
