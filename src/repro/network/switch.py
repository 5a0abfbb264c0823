"""The combining network switch (section 3.3).

A switch is "essentially a 2x2 bidirectional routing device transmitting
a message from its input ports to the appropriate output port on the
opposite side", generalized here to k-by-k.  It is partitioned — as the
paper prescribes — into two essentially independent unidirectional
components:

* the **forward (ToMM) component**: one combining queue per MM-side
  output port, where requests are routed by destination digit, searched
  for combinable partners on insertion, and the decombining information
  of each combined pair is deposited in a wait buffer;
* the **return (ToPE) component**: one plain FIFO per PE-side output
  port; each returning request is routed by the recorded origin digit
  and simultaneously used to search the relevant wait buffer, a hit
  producing the second reply of a combined pair.

Timing model: queues advance one message per cycle when the downstream
structure has room, and each output link is occupied for the message's
packet count (the time-multiplexing factor m of section 4), with
cut-through so an unqueued message suffers only one cycle of switch
delay — "the delay at each switch is only one cycle if the queues are
empty".

Offers are transactional: a refused ``offer_forward`` / ``offer_return``
leaves the message and the switch exactly as they were (no digit swap, no
value rewrite to undo) — capacity is verified before the commit point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.combining import Combined, ReplyMode
from ..core.memory_ops import PACKETS_WITH_DATA, PACKETS_WITHOUT_DATA
from ..instrumentation import (
    DISABLED,
    LATENCY_BUCKETS,
    OCCUPANCY_BUCKETS,
    Counter,
    Histogram,
    Instrumentation,
)
from .message import Message, packets_for
from .systolic_queue import CombiningQueue
from .wait_buffer import WaitBuffer, WaitRecord

#: Signature of the delivery function a tick hands its heads to: called
#: with the sending stage, the output index ``switch.index * k + port``
#: on that stage, and the outgoing message; returns True when the
#: downstream structure accepted it this cycle.  The network's is one
#: method per direction that looks the target up in its wiring table.
Deliver = Callable[[int, int, Message], bool]


def decombine_fits(
    capacity: Optional[int],
    old_port: int,
    records: Sequence[tuple[int, Combined]],
    new_port: int,
    plan: Combined,
) -> bool:
    """Whether combining R-new (arriving on ``new_port``) into R-old
    (which arrived on ``old_port`` and holds wait records here, given
    oldest first as ``records``: each absorbed request's arrival port
    and plan) leaves a decombining fan-out that fits empty ToPE queues.

    Every reply leaves by its request's arrival port in one cycle, so a
    port that needs more than ``capacity`` packets wedges for good.
    R-old's reply carries data unless its first combine's ``old_rule``
    is a bare acknowledgement.
    """
    if capacity is None or capacity >= PACKETS_WITH_DATA * (len(records) + 2):
        return True
    replies = [(old_port, (records[0][1] if records else plan).old_rule)]
    replies += [(port, prior.new_rule) for port, prior in records]
    replies.append((new_port, plan.new_rule))
    needed: dict[int, int] = {}
    for port, rule in replies:
        needed[port] = needed.get(port, 0) + packets_for(rule.mode is not ReplyMode.ACK)
    return max(needed.values()) <= capacity


@dataclass(frozen=True)
class StageInstruments:
    """The instruments every switch of one stage shares (instruments
    are keyed by stage, so every switch and every network copy on one
    registry aggregates into them)."""

    queue_to_mm: Histogram
    wait_occupancy: Histogram
    queue_to_pe: Histogram
    combines: Counter
    decombines: Counter
    wait_residency: Histogram

    @classmethod
    def register(cls, instrumentation: Instrumentation,
                 stage: int) -> "StageInstruments":
        """Register (or look up) stage ``stage``'s instruments, in this
        order (the metrics snapshot keeps registration order)."""
        def occupancy(name: str, **labels: object) -> Histogram:
            return instrumentation.histogram(
                name, buckets=OCCUPANCY_BUCKETS, stage=stage, **labels)

        return cls(
            queue_to_mm=occupancy("network.queue_occupancy_packets",
                                  direction="to_mm"),
            wait_occupancy=occupancy("network.wait_occupancy"),
            queue_to_pe=occupancy("network.queue_occupancy_packets",
                                  direction="to_pe"),
            combines=instrumentation.counter("network.combines", stage=stage),
            decombines=instrumentation.counter("network.decombines",
                                               stage=stage),
            wait_residency=instrumentation.histogram(
                "network.wait_residency_cycles", buckets=LATENCY_BUCKETS,
                stage=stage),
        )


@dataclass(slots=True)
class SwitchStats:
    """Counters exposed for the experiments and ablations."""

    requests_routed: int = 0
    replies_routed: int = 0
    combines: int = 0
    decombines: int = 0
    forward_blocked_cycles: int = 0
    return_blocked_cycles: int = 0


@dataclass(slots=True)
class _Port:
    """One output link with its occupancy bookkeeping."""

    busy_until: int = 0
    messages_sent: int = 0


class Switch:
    """A k-by-k combining switch at a given network stage."""

    __slots__ = (
        "k",
        "stage",
        "index",
        "combining",
        "to_mm",
        "wait_buffers",
        "to_pe",
        "mm_ports",
        "pe_ports",
        "stats",
        "_instr",
        "_instr_on",
        "_combine_counter",
        "_decombine_counter",
        "_wait_residency",
    )

    def __init__(
        self,
        k: int,
        stage: int,
        index: int,
        *,
        queue_capacity_packets: Optional[int] = None,
        wait_buffer_capacity: Optional[int] = None,
        combining: bool = True,
        pairwise_only: bool = True,
        instrumentation: Instrumentation = DISABLED,
        instruments: Optional[StageInstruments] = None,
    ) -> None:
        self.k = k
        self.stage = stage
        self.index = index
        self.combining = combining
        # Instrumentation: the stage's shared instruments (a network
        # passes the ones it registered; a lone instrumented switch
        # registers them itself), cached once; probes gate on _instr_on,
        # which never flips after construction.
        enabled = instrumentation.enabled
        if enabled and instruments is None:
            instruments = StageInstruments.register(instrumentation, stage)
        self.to_mm = [
            CombiningQueue(
                queue_capacity_packets,
                combining=combining,
                pairwise_only=pairwise_only,
                occupancy_histogram=instruments and instruments.queue_to_mm,
            )
            for _ in range(k)
        ]
        self.wait_buffers = [
            WaitBuffer(
                wait_buffer_capacity,
                occupancy_histogram=instruments and instruments.wait_occupancy,
            )
            for _ in range(k)
        ]
        self.to_pe = [
            CombiningQueue(
                queue_capacity_packets,
                combining=False,
                occupancy_histogram=instruments and instruments.queue_to_pe,
            )
            for _ in range(k)
        ]
        self.mm_ports = [_Port() for _ in range(k)]
        self.pe_ports = [_Port() for _ in range(k)]
        self.stats = SwitchStats()
        self._instr = instrumentation
        self._instr_on = enabled
        self._combine_counter = instruments and instruments.combines
        self._decombine_counter = instruments and instruments.decombines
        self._wait_residency = instruments and instruments.wait_residency

    # ------------------------------------------------------------------
    # forward path: requests PE side -> MM side
    # ------------------------------------------------------------------
    def offer_forward(self, in_port: int, message: Message, cycle: int) -> bool:
        """Accept a request arriving on PE-side ``in_port``.

        Routes on the current destination digit, swaps in the origin
        digit (the amalgam of section 3.1.1), and inserts into the ToMM
        queue — combining with a queued partner when possible.  Returns
        False (leaving the message untouched with the caller) when the
        target queue is full and no combine is possible; the combining
        search and the capacity check both precede the digit swap, so a
        refused offer has no side effects to undo.
        """
        out_port = message.digits[self.stage]
        if not 0 <= out_port < self.k:
            raise ValueError(
                f"stage {self.stage} digit {out_port} out of range for k={self.k}"
            )
        queue = self.to_mm[out_port]
        wait_buffer = self.wait_buffers[out_port]

        # Combining must be suppressed while the wait buffer is full —
        # there would be nowhere to put the decombining record — and
        # when its replies could never fit the ToPE queues.
        allow_combine = self.combining and not wait_buffer.is_full()
        partner = queue.find_partner(message, combining=allow_combine)
        if partner is not None:
            queued = partner[0].message
            stage = self.stage
            if not decombine_fits(
                queue.capacity_packets, queued.digits[stage],
                [(r.new_message.digits[stage], r.plan)
                 for r in wait_buffer.peek_all(queued.tag)],
                in_port, partner[1],
            ):
                partner = None
        if partner is None and not queue.can_accept(message.packets):
            return False

        # Commit point: the offer is known to succeed.
        message.digits[self.stage] = in_port
        if partner is not None:
            slot, plan = partner
            queue.commit_combine(slot, message, plan)
            wait_buffer.insert(
                WaitRecord(
                    key_tag=slot.message.tag,
                    plan=plan,
                    new_message=message,
                    stage=self.stage,
                    created_cycle=cycle,
                )
            )
            self.stats.combines += 1
            if self._instr_on:
                self._combine_counter.inc()
                # tag = the absorbed R-new (whose lifecycle continues in
                # the wait buffer); tag2 = the surviving R-old it merged
                # into.  Span reconstruction joins on exactly this pair.
                self._instr.record(
                    "combine",
                    cycle,
                    tag=message.tag,
                    pe=message.origin,
                    stage=self.stage,
                    tag2=slot.message.tag,
                )
        else:
            queue.append(message)
            if self._instr_on:
                self._instr.record(
                    "enqueue",
                    cycle,
                    tag=message.tag,
                    pe=message.origin,
                    stage=self.stage,
                )
        self.stats.requests_routed += 1
        return True

    def tick_forward(self, cycle: int, deliver: Deliver) -> bool:
        """Try to transmit each ToMM queue head to the next stage;
        returns whether the ToMM component still holds requests.

        ``deliver(stage, index * k + out_port, head)`` offers a head to
        whatever that output link is wired to; it returns False when the
        downstream queue is full, in which case the head stays
        (head-of-line blocking, as in the hardware).
        """
        held = False
        stage = self.stage
        q = self.index * self.k
        for queue, port in zip(self.to_mm, self.mm_ports):
            slots = queue._slots
            if slots:
                if cycle >= port.busy_until:
                    head = slots[0].message
                    if deliver(stage, q, head):
                        queue.pop()
                        port.busy_until = cycle + head.packets
                        port.messages_sent += 1
                    else:
                        self.stats.forward_blocked_cycles += 1
                if slots:
                    held = True
            q += 1
        return held

    # ------------------------------------------------------------------
    # return path: replies MM side -> PE side
    # ------------------------------------------------------------------
    def offer_return(self, mm_port: int, message: Message, cycle: int) -> bool:
        """Accept a reply arriving on MM-side ``mm_port``.

        The reply is routed to the ToPE queue selected by its recorded
        origin digit and simultaneously matched against this port's wait
        buffer.  On a hit the switch unwinds the decombining stack —
        innermost (most recent) combine first, since its rule applies to
        the raw memory reply — synthesizing one reply per absorbed
        partner plus the rewritten reply for R-old.  Space for every
        reply is verified before anything commits — the value rewrite,
        the wait-buffer removal, and the enqueues happen only past the
        commit point, so a refused reply retries with no undo needed;
        the paper's pairwise switch is the one-record special case.
        """
        out_port = message.digits[self.stage]
        to_pe = self.to_pe
        records = self.wait_buffers[mm_port].peek_all(message.tag)
        if not records:
            queue = to_pe[out_port]
            if not queue.can_accept(message.packets):
                return False
            queue.append(message)
            self.stats.replies_routed += 1
            return True

        # Unwind most-recent-first, threading the old-side value down.
        value = message.value
        partner_replies: list[Message] = []
        for record in reversed(records):
            new_value = record.plan.new_rule.materialize(value)
            partner_replies.append(record.new_message.make_reply(new_value))
            value = record.plan.old_rule.materialize(value)

        # Verify capacity per target ToPE port for the whole fan-out,
        # using the packet count the rewritten R-old reply *will* have.
        old_packets = PACKETS_WITH_DATA if value is not None else PACKETS_WITHOUT_DATA
        needed: dict[int, int] = {}
        for reply in partner_replies:
            port = reply.digits[self.stage]
            needed[port] = needed.get(port, 0) + reply.packets
        needed[out_port] = needed.get(out_port, 0) + old_packets
        for port, packets in needed.items():
            if not to_pe[port].can_accept(packets):
                return False

        # Commit point: the fan-out is known to fit.
        self.wait_buffers[mm_port].match_all(message.tag)
        message.set_value(value)
        for reply in partner_replies:
            to_pe[reply.digits[self.stage]].append(reply)
            self.stats.decombines += 1
        to_pe[out_port].append(message)
        self.stats.replies_routed += 1 + len(partner_replies)
        if self._instr_on:
            self._decombine_counter.inc(len(records))
            for record in records:
                self._wait_residency.observe(cycle - record.created_cycle)
                self._instr.record(
                    "decombine",
                    cycle,
                    tag=record.new_message.tag,
                    pe=record.new_message.origin,
                    stage=self.stage,
                    tag2=message.tag,
                )
        return True

    def tick_return(self, cycle: int, deliver: Deliver) -> bool:
        """Try to transmit each ToPE queue head toward the PE side, as
        :meth:`tick_forward` does; returns whether the ToPE component
        still holds replies."""
        held = False
        stage = self.stage
        q = self.index * self.k
        for queue, port in zip(self.to_pe, self.pe_ports):
            slots = queue._slots
            if slots:
                if cycle >= port.busy_until:
                    head = slots[0].message
                    if deliver(stage, q, head):
                        queue.pop()
                        port.busy_until = cycle + head.packets
                        port.messages_sent += 1
                    else:
                        self.stats.return_blocked_cycles += 1
                if slots:
                    held = True
            q += 1
        return held

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        """Messages resident in this switch (both directions)."""
        return sum(len(q) for q in self.to_mm) + sum(len(q) for q in self.to_pe)

    def pending_wait_records(self) -> int:
        return sum(len(wb) for wb in self.wait_buffers)

    def queue_occupancy_packets(self) -> int:
        return sum(q.used_packets for q in self.to_mm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Switch stage={self.stage} index={self.index} "
            f"pending={self.pending_messages()} waits={self.pending_wait_records()}>"
        )
