"""Processor and memory network interfaces (section 3.4).

The PNI (processor-network interface) performs "virtual to physical
address translation, assembly/disassembly of memory requests,
enforcement of the network pipeline policy, and cache management"; the
MNI (memory-network interface) is "much simpler, performing only request
assembly/disassembly and the additions operation necessary to support
fetch-and-add".

Cache management lives in :mod:`repro.memory.cache`; this module
implements the other three PNI functions and the complete MNI:

* tag assignment and reply matching;
* the pipelining policy, including the rule that "the PNI is to prohibit
  a PE from having more than one outstanding reference to the same
  memory location" (the wait buffers rely on it) and a configurable
  outstanding-request window;
* translation through a pluggable
  :class:`~repro.memory.hashing.AddressTranslation`;
* MNI request assembly (a message of p packets is complete p-1 cycles
  after its head arrives) and the fetch-and-add adder, realized by
  applying the operation atomically at the module.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..core.memory_ops import Op
from ..instrumentation import (
    DISABLED,
    Instrumentation,
    LATENCY_BUCKETS,
    OCCUPANCY_BUCKETS,
)
from ..memory.hashing import AddressTranslation
from ..memory.module import MemoryModule
from .message import Message
from .topology import Topology

_tag_counter = itertools.count(1)


class OutstandingConflictError(RuntimeError):
    """A PE tried to issue a second reference to an outstanding location."""


@dataclass(slots=True)
class ReplyRecord:
    """A completed request as seen by the PE side."""

    tag: int
    op: Op
    value: Optional[int]
    issued_cycle: int
    completed_cycle: int

    @property
    def round_trip(self) -> int:
        return self.completed_cycle - self.issued_cycle


class PNI:
    """Processor-network interface for one PE.

    Parameters
    ----------
    pe_id:
        The PE (and network input line) this interface serves.
    topology:
        Network wiring.  :meth:`issue` puts its interned route tuple for
        (destination, this PE) on each request and allocates no digit
        list: the tuple is shared until a network is first offered the
        request, which then rewrites a private copy (the batch kernel
        keeps the digits in its arrays instead).
    translation:
        Virtual-to-physical map; the message carries the module-internal
        offset so MNIs apply operations locally.
    max_outstanding:
        Pipeline window; ``None`` allows unlimited outstanding requests
        (useful with prefetch-heavy PE models), 1 models a blocking PE.
    tag_counter:
        Iterator yielding request tags.  The machine passes one counter
        shared by all of its PNIs (tags must be unique machine-wide —
        wait buffers key on them) so that identical runs produce
        identical tag streams; standalone PNIs default to a process-wide
        counter for backward compatibility.
    ready:
        Set that :meth:`issue` adds ``pe_id`` to whenever it enqueues a
        request.  The machine passes one set shared by all of its PNIs;
        the batch kernel reads it as the PNIs holding requests, whatever
        driver issued them, and removes a PE when it drains that PNI.
        Standalone PNIs default to a private set.
    replied:
        Set that :meth:`deliver` adds ``pe_id`` to.  The machine
        passes one set shared by all of its PNIs, so a driver can drain
        the PNIs that received replies instead of polling all of them.
        Standalone PNIs default to a private set.
    """

    __slots__ = (
        "pe_id",
        "topology",
        "translation",
        "max_outstanding",
        "_tags",
        "_ready",
        "_replied",
        "outbound",
        "_outstanding_cells",
        "_outstanding_tags",
        "completed",
        "_link_busy_until",
        "requests_issued",
        "replies_received",
        "total_round_trip",
        "_instr",
        "_instr_on",
        "_issue_counter",
        "_rtt_histogram",
    )

    def __init__(
        self,
        pe_id: int,
        topology: Topology,
        translation: AddressTranslation,
        *,
        max_outstanding: Optional[int] = None,
        instrumentation: Instrumentation = DISABLED,
        tag_counter: Optional[Iterator[int]] = None,
        ready: Optional[set[int]] = None,
        replied: Optional[set[int]] = None,
    ) -> None:
        self.pe_id = pe_id
        self.topology = topology
        self.translation = translation
        self.max_outstanding = max_outstanding
        self._tags = tag_counter if tag_counter is not None else _tag_counter
        self._ready = ready if ready is not None else set()
        self._replied = replied if replied is not None else set()
        self.outbound: deque[Message] = deque()
        self._outstanding_cells: set[tuple[int, int]] = set()
        self._outstanding_tags: dict[int, Message] = {}
        self.completed: deque[ReplyRecord] = deque()
        self._link_busy_until = 0
        # statistics
        self.requests_issued = 0
        self.replies_received = 0
        self.total_round_trip = 0
        # instrumentation (handles cached once; probes gate on _instr_on)
        self._instr = instrumentation
        self._instr_on = instrumentation.enabled
        if instrumentation.enabled:
            self._issue_counter = instrumentation.counter("machine.requests_issued")
            self._rtt_histogram = instrumentation.histogram(
                "machine.round_trip_cycles", buckets=LATENCY_BUCKETS
            )
        else:
            self._issue_counter = None
            self._rtt_histogram = None

    # ------------------------------------------------------------------
    # PE-side API
    # ------------------------------------------------------------------
    def can_issue(self, op: Op) -> bool:
        if (
            self.max_outstanding is not None
            and len(self._outstanding_tags) + len(self.outbound) >= self.max_outstanding
        ):
            return False
        # With nothing outstanding there is no conflict to find (and
        # :meth:`issue` still translates, rejecting a bad address).
        cells = self._outstanding_cells
        return not cells or self.translation.translate(op.address) not in cells

    def issue(self, op: Op, cycle: int) -> int:
        """Assemble and enqueue a request; returns its tag.

        Raises :class:`OutstandingConflictError` on a same-location
        conflict — callers use :meth:`can_issue` to stall instead, but
        the hard error catches protocol bugs in PE models.
        """
        module, offset = self.translation.translate(op.address)
        cell = (module, offset)
        if cell in self._outstanding_cells:
            raise OutstandingConflictError(
                f"PE {self.pe_id} already has an outstanding reference to "
                f"module {module} offset {offset}"
            )
        # Ops are immutable, so one already addressed by its offset is
        # shared rather than copied.
        physical_op = op if op.address == offset else dataclasses.replace(
            op, address=offset)
        tag = next(self._tags)
        message = Message(
            op=physical_op,
            mm=module,
            offset=offset,
            origin=self.pe_id,
            tag=tag,
            digits=self.topology.route_tuple(module, self.pe_id),
            issued_cycle=cycle,
        )
        self.outbound.append(message)
        self._ready.add(self.pe_id)
        self._outstanding_cells.add(cell)
        self._outstanding_tags[tag] = message
        self.requests_issued += 1
        if self._instr_on:
            self._issue_counter.inc()
            self._instr.record("issue", cycle, tag=tag, pe=self.pe_id, mm=module)
        return tag

    def outstanding(self) -> int:
        return len(self._outstanding_tags)

    # ------------------------------------------------------------------
    # network-side operation
    # ------------------------------------------------------------------
    def tick_outbound(self, cycle: int, inject: Callable[[int, Message], bool]) -> None:
        """Push the head request into stage 0 when the link is free."""
        if not self.outbound or cycle < self._link_busy_until:
            return
        head = self.outbound[0]
        if inject(self.pe_id, head):
            self.outbound.popleft()
            self._link_busy_until = cycle + head.packets

    def deliver_reply(self, message: Message, cycle: int) -> bool:
        """Accept a reply from stage 0 (the PE side always has room)."""
        return self.deliver(message.tag, message.value, cycle)

    def deliver(self, tag: int, value: Optional[int], cycle: int) -> bool:
        """:meth:`deliver_reply` for the reply with ``tag`` carrying
        ``value`` (all the PE side reads of it)."""
        original = self._outstanding_tags.pop(tag, None)
        if original is None:
            raise AssertionError(
                f"PNI {self.pe_id} received reply with unknown tag {tag}"
            )
        self._outstanding_cells.discard((original.mm, original.offset))
        issued = original.issued_cycle
        self.completed.append(ReplyRecord(tag, original.op, value, issued, cycle))
        self._replied.add(self.pe_id)
        self.replies_received += 1
        self.total_round_trip += cycle - issued
        if self._instr_on:
            self._rtt_histogram.observe(cycle - issued)
            self._instr.record("reply", cycle, tag=tag, pe=self.pe_id, value=value)
        return True

    def pop_reply(self) -> Optional[ReplyRecord]:
        return self.completed.popleft() if self.completed else None

    @property
    def mean_round_trip(self) -> float:
        if self.replies_received == 0:
            return 0.0
        return self.total_round_trip / self.replies_received

    # ------------------------------------------------------------------
    # wake contract (the kernels' quiet-cycle fast-forward)
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` at which :meth:`tick_outbound`
        could inject; ``None`` when nothing is queued (replies arrive by
        push, so waiting on them is not a local event)."""
        if not self.outbound:
            return None
        return max(cycle, self._link_busy_until)


class MNI:
    """Memory-network interface fronting one memory module.

    Assembles arriving requests (multi-packet messages complete
    ``packets - 1`` cycles after the head arrives), applies each
    operation atomically at the module — this is where the paper's MNI
    adder performs the fetch-and-add — and disassembles replies back
    into the network.

    ``busy`` is the set :meth:`offer_inbound` adds the module index to;
    the machine shares one among its MNIs, so the dense kernel ticks only
    those with work.  Standalone MNIs default to a private set.
    """

    __slots__ = (
        "module",
        "inbound_capacity_packets",
        "_busy",
        "_inbound",
        "_inbound_packets",
        "_in_service",
        "outbound",
        "_link_busy_until",
        "requests_served",
        "busy_cycles",
        "_instr",
        "_instr_on",
        "_inbound_histogram",
    )

    def __init__(
        self,
        module: MemoryModule,
        *,
        inbound_capacity_packets: Optional[int] = None,
        instrumentation: Instrumentation = DISABLED,
        busy: Optional[set[int]] = None,
    ) -> None:
        self.module = module
        self.inbound_capacity_packets = inbound_capacity_packets
        self._busy = busy if busy is not None else set()
        self._inbound: deque[tuple[Message, int]] = deque()  # (message, ready cycle)
        self._inbound_packets = 0
        self._in_service: Optional[tuple[Message, int]] = None  # (message, done cycle)
        self.outbound: deque[Message] = deque()
        self._link_busy_until = 0
        # statistics
        self.requests_served = 0
        self.busy_cycles = 0
        # instrumentation (handles cached once; probes gate on _instr_on)
        self._instr = instrumentation
        self._instr_on = instrumentation.enabled
        if instrumentation.enabled:
            self._inbound_histogram = instrumentation.histogram(
                "mni.inbound_occupancy_packets",
                buckets=OCCUPANCY_BUCKETS,
                module=module.index,
            )
        else:
            self._inbound_histogram = None

    # ------------------------------------------------------------------
    # network-facing intake
    # ------------------------------------------------------------------
    def offer_inbound(self, message: Message, cycle: int) -> bool:
        if (
            self.inbound_capacity_packets is not None
            and self._inbound_packets + message.packets > self.inbound_capacity_packets
        ):
            return False
        ready = cycle + max(0, message.packets - 1)
        self._inbound.append((message, ready))
        self._inbound_packets += message.packets
        self._busy.add(self.module.index)
        if self._instr_on:
            self._inbound_histogram.observe(self._inbound_packets)
        return True

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> bool:
        """Complete / start one memory access (serial server); returns
        whether inbound or in-service work remains."""
        if self._in_service is None and not self._inbound:
            return False  # nothing in service, nothing assembling: a true no-op
        if self._in_service is not None:
            message, done = self._in_service
            if cycle >= done:
                effect = self.module.apply(message.op)
                value = effect.result if message.op.expects_value else None
                self.outbound.append(message.make_reply(value))
                self.module.accesses += 1
                self.requests_served += 1
                self._in_service = None
                if self._instr_on:
                    self._instr.record(
                        "mm_serve", cycle, tag=message.tag, mm=self.module.index
                    )

        if self._in_service is None and self._inbound:
            message, ready = self._inbound[0]
            if cycle >= ready:
                self._inbound.popleft()
                self._inbound_packets -= message.packets
                self._in_service = (message, cycle + self.module.latency)

        if self._in_service is not None:
            self.busy_cycles += 1
            return True
        return bool(self._inbound)

    def tick_outbound(self, cycle: int, inject: Callable[[int, Message], bool]) -> None:
        """Push the head reply back into the last network stage."""
        if not self.outbound or cycle < self._link_busy_until:
            return
        head = self.outbound[0]
        if inject(self.module.index, head):
            self.outbound.popleft()
            self._link_busy_until = cycle + head.packets

    @property
    def pending(self) -> int:
        return len(self._inbound) + (1 if self._in_service else 0) + len(self.outbound)

    # ------------------------------------------------------------------
    # wake contract (dense kernel; the batch kernel keeps the MNIs in
    # arrays and computes the same horizon there)
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` at which :meth:`tick` or
        :meth:`tick_outbound` would change state; ``None`` when empty."""
        best: Optional[int] = None
        if self._in_service is not None:
            best = max(cycle, self._in_service[1])
        elif self._inbound:
            best = max(cycle, self._inbound[0][1])
        if self.outbound:
            c = max(cycle, self._link_busy_until)
            best = c if best is None else min(best, c)
        return best

    def fast_forward(self, delta: int) -> None:
        """Apply the per-cycle counters ``delta`` quiet cycles would
        have accumulated (a module mid-access stays busy while idle-
        waiting for its latency to elapse)."""
        if self._in_service is not None:
            self.busy_cycles += delta
