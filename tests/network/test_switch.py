"""Tests for the combining switch (section 3.3)."""

from repro.core.memory_ops import FetchAdd, Load, Store
from repro.network.message import Message
from repro.network.switch import Switch
from repro.network.topology import OmegaTopology


def make_request(op, mm, topo, origin=0, tag=None):
    return Message(
        op=op,
        mm=mm,
        offset=op.address,
        origin=origin,
        tag=tag if tag is not None else 1000 + origin,
        digits=topo.route_digits(mm),
    )


def make_switch(**kwargs):
    return Switch(2, stage=0, index=0, **kwargs)


def delivers_logging(log):
    """A delivery function that records (output, message) and accepts;
    on switch 0 the output index is the port."""
    return lambda stage, q, msg: log.append((q, msg)) or True


def ACCEPT_ALL(stage, q, msg):
    return True


def REJECT_ALL(stage, q, msg):
    return False

TOPO = OmegaTopology(8, 2)


class TestForwardRouting:
    def test_routes_by_stage_digit(self):
        switch = make_switch()
        # mm=0b100: stage 0 digit is 1 -> lower output port
        message = make_request(Load(0), mm=0b100, topo=TOPO)
        assert switch.offer_forward(0, message, cycle=0)
        assert switch.to_mm[1].head() is message
        assert len(switch.to_mm[0]) == 0

    def test_digit_swapped_with_arrival_port(self):
        switch = make_switch()
        message = make_request(Load(0), mm=0b100, topo=TOPO)
        switch.offer_forward(1, message, cycle=0)
        assert message.digits[0] == 1  # arrival port recorded

    def test_full_queue_refuses_and_restores_digit(self):
        switch = make_switch(queue_capacity_packets=1)
        first = make_request(Load(0), mm=0b100, topo=TOPO, tag=1)
        blocked = make_request(Load(1), mm=0b110, topo=TOPO, tag=2)
        assert switch.offer_forward(0, first, cycle=0)
        assert not switch.offer_forward(0, blocked, cycle=0)
        # the refused message must still route correctly on retry
        assert blocked.digits == TOPO.route_digits(0b110)

    def test_tick_forward_moves_head_downstream(self):
        switch = make_switch()
        message = make_request(Load(0), mm=0b000, topo=TOPO)
        switch.offer_forward(0, message, cycle=0)
        delivered = []
        switch.tick_forward(1, delivers_logging(delivered))
        assert delivered == [(0, message)]
        assert switch.to_mm[0].head() is None

    def test_link_occupancy_throttles(self):
        """A 3-packet message holds the output link for 3 cycles."""
        switch = make_switch()
        a = make_request(Store(0, 5), mm=0, topo=TOPO, tag=1)  # 3 packets
        b = make_request(Store(1, 6), mm=0, topo=TOPO, tag=2)
        switch.offer_forward(0, a, 0)
        switch.offer_forward(0, b, 0)
        sent = []
        for cycle in range(6):
            accept = (
                lambda stage, q, msg, _c=cycle: sent.append((_c, msg.tag)) or True
            )
            switch.tick_forward(cycle, accept)
        assert sent[0][1] == 1
        assert sent[1][1] == 2
        assert sent[1][0] - sent[0][0] >= 3

    def test_backpressure_keeps_head(self):
        switch = make_switch()
        message = make_request(Load(0), mm=0, topo=TOPO)
        switch.offer_forward(0, message, 0)
        switch.tick_forward(1, REJECT_ALL)  # downstream full
        assert switch.to_mm[0].head() is message
        assert switch.stats.forward_blocked_cycles == 1


class TestCombineAndDecombine:
    def _combined_switch(self):
        switch = make_switch()
        old = make_request(FetchAdd(4, 1), mm=0, topo=TOPO, origin=0, tag=10)
        new = make_request(FetchAdd(4, 2), mm=0, topo=TOPO, origin=1, tag=20)
        assert switch.offer_forward(0, old, 0)
        assert switch.offer_forward(1, new, 0)
        return switch, old, new

    def test_combine_places_wait_record(self):
        switch, old, new = self._combined_switch()
        assert switch.stats.combines == 1
        assert len(switch.to_mm[0]) == 1
        assert switch.to_mm[0].head().op.increment == 3
        assert switch.pending_wait_records() == 1

    def test_reply_fans_out_to_both_requesters(self):
        switch, old, new = self._combined_switch()
        # simulate the combined request going to memory and returning
        forwarded = switch.to_mm[0].pop()
        reply = forwarded.make_reply(100)  # memory held 100
        assert switch.offer_return(0, reply, 5)
        assert switch.stats.decombines == 1
        # two replies queued on the ToPE side, routed by origin digits
        heads = [q.head() for q in switch.to_pe if q.head() is not None]
        values = sorted(m.value for m in heads)
        assert values == [100, 101]  # Y for R-old, Y+e (e=1) for R-new
        tags = sorted(m.tag for m in heads)
        assert tags == [10, 20]

    def test_reply_without_record_routes_straight_through(self):
        switch = make_switch()
        message = make_request(Load(0), mm=0, topo=TOPO, origin=1, tag=7)
        switch.offer_forward(1, message, 0)
        forwarded = switch.to_mm[0].pop()
        reply = forwarded.make_reply(55)
        assert switch.offer_return(0, reply, 3)
        assert switch.to_pe[1].head() is reply  # origin digit = port 1

    def test_reply_refused_when_tope_full_keeps_record(self):
        # 6 packets: room for both 3-packet replies in an empty queue
        switch = Switch(2, stage=0, index=0, queue_capacity_packets=6)
        old = make_request(FetchAdd(4, 1), mm=0, topo=TOPO, origin=0, tag=10)
        new = make_request(FetchAdd(4, 2), mm=0, topo=TOPO, origin=0, tag=20)
        switch.offer_forward(0, old, 0)
        switch.offer_forward(0, new, 0)
        # fill the target ToPE queue (both replies head to port 0)
        filler = make_request(Load(9), mm=0, topo=TOPO, origin=0, tag=99)
        filler_reply = filler.make_reply(1)  # 3 packets
        switch.to_pe[0].insert(filler_reply)
        forwarded = switch.to_mm[0].pop()
        reply = forwarded.make_reply(100)
        assert not switch.offer_return(0, reply, 5)
        assert switch.pending_wait_records() == 1  # record retained
        assert reply.value == 100  # rewrite undone for retry

    def test_combine_refused_when_fan_out_cannot_fit(self):
        """Both replies would leave through ToPE port 0: 6 packets that
        a 4-packet queue can never hold, so the requests queue apart.
        Arriving on different ports, the same pair combines."""
        switch = Switch(2, stage=0, index=0, queue_capacity_packets=4)
        old = make_request(FetchAdd(4, 1), mm=0, topo=TOPO, tag=10)
        new = make_request(FetchAdd(4, 2), mm=0, topo=TOPO, tag=20)
        assert switch.offer_forward(0, old, 0)
        assert not switch.offer_forward(0, new, 0)  # no combine, no room
        assert switch.stats.combines == 0
        other = make_request(FetchAdd(4, 2), mm=0, topo=TOPO, tag=30)
        assert switch.offer_forward(1, other, 0)
        assert switch.stats.combines == 1

    def test_combining_suppressed_when_wait_buffer_full(self):
        switch = Switch(2, stage=0, index=0, wait_buffer_capacity=0)
        old = make_request(FetchAdd(4, 1), mm=0, topo=TOPO, tag=10)
        new = make_request(FetchAdd(4, 2), mm=0, topo=TOPO, tag=20)
        switch.offer_forward(0, old, 0)
        switch.offer_forward(0, new, 0)
        assert switch.stats.combines == 0
        assert len(switch.to_mm[0]) == 2  # queued separately

    def test_unlimited_combining_unwinds_record_stack(self):
        """With pairwise_only=False a queued request absorbs several
        partners; the reply must fan out to every one with correct
        prefix values, unwinding the wait-record stack innermost-first."""
        switch = Switch(2, stage=0, index=0, pairwise_only=False)
        requests = [
            make_request(FetchAdd(4, inc), mm=0, topo=TOPO, origin=i % 2,
                         tag=10 * (i + 1))
            for i, inc in enumerate([1, 2, 4])
        ]
        for i, request in enumerate(requests):
            assert switch.offer_forward(i % 2, request, 0)
        assert switch.stats.combines == 2
        assert len(switch.to_mm[0]) == 1
        forwarded = switch.to_mm[0].pop()
        assert forwarded.op.increment == 7

        reply = forwarded.make_reply(100)
        assert switch.offer_return(0, reply, 5)
        replies = []
        for queue in switch.to_pe:
            while queue.head() is not None:
                replies.append(queue.pop())
        values = sorted(m.value for m in replies)
        # prefix sums of (1, 2, 4) in combine order from 100
        assert values == [100, 101, 103]
        assert switch.pending_wait_records() == 0

    def test_forward_refuse_then_retry_commits_nothing_until_accepted(self):
        """A refused offer_forward must be side-effect free: no digit
        swap to undo, no stats, and the identical retry succeeds once
        the queue drains (regression for the old mutate-then-undo flow)."""
        switch = make_switch(queue_capacity_packets=1)
        first = make_request(Load(0), mm=0b100, topo=TOPO, tag=1)
        blocked = make_request(Load(1), mm=0b110, topo=TOPO, tag=2)
        assert switch.offer_forward(0, first, cycle=0)
        digits_before = list(blocked.digits)
        packets_before = blocked.packets
        assert not switch.offer_forward(1, blocked, cycle=0)
        assert blocked.digits == digits_before
        assert blocked.packets == packets_before
        assert switch.stats.requests_routed == 1  # only the accepted offer
        # Drain the blocking head; the very same message then routes in.
        switch.tick_forward(1, ACCEPT_ALL)
        assert switch.offer_forward(1, blocked, cycle=2)
        assert blocked.digits[0] == 1  # arrival port recorded at commit
        assert switch.to_mm[1].head() is blocked

    def test_return_refuse_then_retry_delivers_full_fanout(self):
        """A refused offer_return must leave the reply, the wait records,
        and the queues untouched; once the blocking ToPE head drains the
        identical retry commits the whole decombine fan-out."""
        switch = Switch(2, stage=0, index=0, queue_capacity_packets=6)
        old = make_request(FetchAdd(4, 1), mm=0, topo=TOPO, origin=0, tag=10)
        new = make_request(FetchAdd(4, 2), mm=0, topo=TOPO, origin=0, tag=20)
        switch.offer_forward(0, old, 0)
        switch.offer_forward(0, new, 0)
        # Fill the target ToPE queue so the 6-packet fan-out cannot fit.
        filler = make_request(Load(9), mm=0, topo=TOPO, origin=0, tag=99)
        switch.to_pe[0].insert(filler.make_reply(1))  # 3 packets
        forwarded = switch.to_mm[0].pop()
        reply = forwarded.make_reply(100)
        assert not switch.offer_return(0, reply, 5)
        assert reply.value == 100  # untouched, not rewritten-then-undone
        assert reply.packets == 3
        assert switch.pending_wait_records() == 1
        assert switch.stats.decombines == 0
        # Drain the blocker; the same reply then decombines completely.
        switch.tick_return(6, ACCEPT_ALL)
        assert switch.offer_return(0, reply, 7)
        assert switch.pending_wait_records() == 0
        assert switch.stats.decombines == 1
        replies = []
        for queue in switch.to_pe:
            while queue.head() is not None:
                replies.append(queue.pop())
        assert sorted(m.value for m in replies) == [100, 101]
        assert sorted(m.tag for m in replies) == [10, 20]

    def test_heterogeneous_combine_load_satisfied_by_store(self):
        switch = make_switch()
        old = make_request(Load(4), mm=0, topo=TOPO, origin=0, tag=10)
        new = make_request(Store(4, 9), mm=0, topo=TOPO, origin=1, tag=20)
        switch.offer_forward(0, old, 0)
        switch.offer_forward(1, new, 0)
        forwarded = switch.to_mm[0].pop()
        assert isinstance(forwarded.op, Store)
        ack = forwarded.make_reply(None)
        assert switch.offer_return(0, ack, 2)
        replies = {q.head().tag: q.head() for q in switch.to_pe if q.head()}
        assert replies[10].value == 9  # load satisfied from store datum
        assert replies[20].value is None  # store acked
