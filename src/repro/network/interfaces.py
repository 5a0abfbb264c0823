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

Requests cross the PE boundary as columns: a driver issues a cycle's
requests for many PEs with one call (:func:`issue_requests`, behind
``Ultracomputer.issue_many``), translated by one call, and each is kept
as a row of plain values (:class:`Request`) until its reply is taken;
replies are completed the same way (:func:`deliver_replies`).
:meth:`PNI.issue`, :meth:`PNI.can_issue` and :meth:`PNI.deliver` are
the one-request cases.  A :class:`Message` or a :class:`ReplyRecord` is
built only when something reads one.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from ..core.memory_ops import FetchAdd, Load, Op, Store
from ..instrumentation import (
    DISABLED,
    Counter,
    Histogram,
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


class Request(NamedTuple):
    """An outstanding request as its PNI records it: a row of plain
    values, kept from issue until the reply is taken.

    ``op`` is the op as the PE issued it (virtual address).  The
    :class:`Message` that carries it to memory, with the physical
    ``offset`` as its address, is built only when something needs one:
    the dense kernel's injection (:meth:`PNI.tick_outbound`), a reader
    of :attr:`PNI.outbound`, or the batch kernel's object view.
    """

    tag: int
    origin: int
    mm: int
    offset: int
    op: Op
    issued_cycle: int


class ReplyRecord(NamedTuple):
    """A completed request as seen by the PE side.

    ``op`` is the op the PE passed to :meth:`PNI.issue`, on every kernel
    (a combine may have rewritten the message that carried it).  A PNI
    keeps its replies as plain rows and builds a record only when a
    reader pops or looks (:meth:`PNI.pop_reply`, :attr:`PNI.completed`).
    """

    tag: int
    op: Op
    value: Optional[int]
    issued_cycle: int
    completed_cycle: int

    @property
    def round_trip(self) -> int:
        return self.completed_cycle - self.issued_cycle


#: the common op classes readdressed by their constructors, which are
#: several times cheaper than ``dataclasses.replace``
_READDRESS: dict[type, Callable[[Any, int], Op]] = {
    Load: lambda op, address: Load(address),
    Store: lambda op, address: Store(address, op.value),
    FetchAdd: lambda op, address: FetchAdd(address, op.increment),
}


def physical_op(op: Op, offset: int) -> Op:
    """``op`` addressed by its module ``offset``, the address a request
    carries past its PNI (ops are immutable, so one already addressed
    by it is shared rather than copied)."""
    if op.address == offset:
        return op
    readdress = _READDRESS.get(type(op))
    if readdress is None:
        return dataclasses.replace(op, address=offset)
    return readdress(op, offset)


def _refused(pni: "PNI", cell: Optional[tuple[int, int]],
             windowed: bool = True) -> bool:
    """The pipeline policy: refuse a request when the PNI holds an
    outstanding reference to ``cell`` ("the PNI is to prohibit a PE from
    having more than one outstanding reference to the same memory
    location"), or, ``windowed``, when its window is full (a queued
    request counts both as outstanding and as queued)."""
    window = pni.max_outstanding
    return cell in pni._outstanding_cells or (
        windowed and window is not None
        and len(pni._outstanding_tags) + len(pni._queue) >= window)


#: builds a row from a tuple of its fields (no per-field call)
_new_row = tuple.__new__


def issue_requests(pnis: Sequence["PNI"], ops: Sequence[Op], cycle: int,
                   windowed: bool = True) -> list[Optional[int]]:
    """Issue ``ops[x]`` at ``pnis[x]``, in order: each request's tag, or
    None where its PNI refuses it (:func:`_refused`; :meth:`PNI.issue`,
    the one-request case, is not ``windowed``).

    The PNIs are one machine's, which share a translation, a tag
    stream, a ready set and their instruments.  The batch is translated
    by one call, tags follow the order of ``pnis`` (a caller passes
    them in ascending-PE order, as a sweep of the PEs would issue), and
    each accepted request is recorded as a :class:`Request` row queued
    for the link; no :class:`Message` is built."""
    if not pnis:
        return []
    first = pnis[0]
    cells = first.translation.translate_many([op.address for op in ops])
    tags, ready = first._tags, first._ready
    issued: list[Optional[int]] = []
    for pni, op, cell in zip(pnis, ops, cells):
        if _refused(pni, cell, windowed):
            issued.append(None)
            continue
        tag = next(tags)
        pe = pni.pe_id
        row = _new_row(Request, (tag, pe, *cell, op, cycle))
        pni._queue.append(row)
        pni._outstanding_tags[tag] = row
        pni._outstanding_cells.add(cell)
        pni.requests_issued += 1
        ready.add(pe)
        issued.append(tag)
    if first._instr_on:
        accepted = [x for x, tag in enumerate(issued) if tag is not None]
        first._issue_counter.inc(len(accepted))
        trace = first._trace
        if trace is not None:
            for x in accepted:
                trace.record("issue", cycle, tag=issued[x], pe=pnis[x].pe_id,
                             mm=cells[x][0])
    return issued


def deliver_replies(pnis: Sequence["PNI"], tags: Sequence[int],
                    values: Sequence[Optional[int]], cycle: int) -> None:
    """Complete the request ``tags[x]`` at ``pnis[x]`` with its reply's
    ``values[x]``, in order (the PE side always takes a reply): it
    leaves the outstanding set and frees its cell, its reply is kept
    as a row until a reader takes it, its PNI joins the replied set, and
    the round trip is counted.  The PNIs are one machine's, which share
    their instruments; :meth:`PNI.deliver` is the one-reply case."""
    if not pnis:
        return
    first = pnis[0]
    histogram = first._rtt_histogram
    trace = first._trace
    for pni, tag, value in zip(pnis, tags, values):
        row = pni._outstanding_tags.pop(tag, None)
        if row is None:
            raise AssertionError(
                f"PNI {pni.pe_id} received reply with unknown tag {tag}"
            )
        _, pe, mm, offset, op, issued = row
        pni._outstanding_cells.discard((mm, offset))
        pni._replies.append((tag, op, value, issued, cycle))
        pni._replied.add(pe)
        pni.replies_received += 1
        pni.total_round_trip += cycle - issued
        if histogram is not None:
            histogram.observe(cycle - issued)
            if trace is not None:
                trace.record("reply", cycle, tag=tag, pe=pe, value=value)


class PNI:
    """Processor-network interface for one PE.

    Parameters
    ----------
    pe_id:
        The PE (and network input line) this interface serves.
    topology:
        Network wiring.  A request's :class:`Message` carries the
        interned route tuple for (destination, this PE) and no digit
        list: the tuple is shared until a network is first offered the
        request, which then rewrites a private copy (the batch kernel
        keeps the digits in its arrays instead).
    translation:
        Virtual-to-physical map; a request carries the module-internal
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
        Set that an issue adds ``pe_id`` to whenever it enqueues a
        request.  The machine passes one set shared by all of its PNIs;
        the batch kernel reads it as the PNIs holding requests, whatever
        driver issued them, and removes a PE when it drains that PNI.
        Standalone PNIs default to a private set.
    replied:
        Set that a delivery adds ``pe_id`` to.  The machine passes one
        set shared by all of its PNIs, so a driver can drain the PNIs
        that received replies instead of polling all of them.
        Standalone PNIs default to a private set.
    issue_counter, rtt_histogram:
        The instrumented machine's ``machine.requests_issued`` counter
        and ``machine.round_trip_cycles`` histogram, which every PNI
        shares: the machine looks them up once and passes them in.
        Without them an instrumented PNI looks them up itself.

    Requests are rows (:class:`Request`) from issue to reply: the queue
    for the link holds rows until the dense kernel injects one or a
    reader looks at :attr:`outbound`, and replies are rows until a
    reader takes a :class:`ReplyRecord`.
    """

    __slots__ = (
        "pe_id",
        "topology",
        "translation",
        "max_outstanding",
        "_tags",
        "_ready",
        "_replied",
        "_queue",
        "_outstanding_cells",
        "_outstanding_tags",
        "_replies",
        "_link_busy_until",
        "requests_issued",
        "replies_received",
        "total_round_trip",
        "_trace",
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
        issue_counter: Optional[Counter] = None,
        rtt_histogram: Optional[Histogram] = None,
    ) -> None:
        self.pe_id = pe_id
        self.topology = topology
        self.translation = translation
        self.max_outstanding = max_outstanding
        self._tags = tag_counter if tag_counter is not None else _tag_counter
        self._ready = ready if ready is not None else set()
        self._replied = replied if replied is not None else set()
        #: queued for the link: rows, or the Messages built from them
        self._queue: deque = deque()
        self._outstanding_cells: set[tuple[int, int]] = set()
        self._outstanding_tags: dict[int, Request] = {}
        #: replies not yet taken: rows, or the records built from them
        self._replies: deque = deque()
        self._link_busy_until = 0
        # statistics
        self.requests_issued = 0
        self.replies_received = 0
        self.total_round_trip = 0
        # instrumentation (handles cached once; probes gate on _instr_on,
        # the trace's on whether one is kept)
        self._trace = instrumentation.trace if instrumentation.enabled else None
        self._instr_on = instrumentation.enabled
        if instrumentation.enabled:
            if issue_counter is None:
                issue_counter = instrumentation.counter("machine.requests_issued")
            if rtt_histogram is None:
                rtt_histogram = instrumentation.histogram(
                    "machine.round_trip_cycles", buckets=LATENCY_BUCKETS)
            self._issue_counter = issue_counter
            self._rtt_histogram = rtt_histogram
        else:
            self._issue_counter = None
            self._rtt_histogram = None

    # ------------------------------------------------------------------
    # PE-side API
    # ------------------------------------------------------------------
    def can_issue(self, op: Op) -> bool:
        """Whether :meth:`issue` would take ``op`` now."""
        # With nothing outstanding there is no conflict to find (and
        # :meth:`issue` still translates, rejecting a bad address).
        cell = None
        if self._outstanding_cells:
            (cell,) = self.translation.translate_many((op.address,))
        return not _refused(self, cell)

    def issue(self, op: Op, cycle: int) -> int:
        """Assemble and enqueue a request; returns its tag.

        Raises :class:`OutstandingConflictError` on a same-location
        conflict — callers use :meth:`can_issue` to stall instead (it
        also applies the window), but the hard error catches protocol
        bugs in PE models.
        """
        (tag,) = issue_requests((self,), (op,), cycle, windowed=False)
        if tag is None:
            ((module, offset),) = self.translation.translate_many((op.address,))
            raise OutstandingConflictError(
                f"PE {self.pe_id} already has an outstanding reference to "
                f"module {module} offset {offset}"
            )
        return tag

    def outstanding(self) -> int:
        return len(self._outstanding_tags)

    @property
    def outbound(self) -> deque[Message]:
        """The requests queued for the link, oldest first, as Messages.

        A row still queued is built into its Message here, in place, so
        a reader may take one off the queue as the link would."""
        queue = self._queue
        # rows only ever follow Messages in the queue
        if queue and type(queue[-1]) is Request:
            messages = [m if type(m) is Message else self._message(m)
                        for m in queue]
            queue.clear()
            queue.extend(messages)
        return queue

    def _message(self, row: Request) -> Message:
        """The request Message of ``row``, with its interned route."""
        tag, pe, mm, offset, op, cycle = row
        return Message(op=physical_op(op, offset), mm=mm, offset=offset,
                       origin=pe, tag=tag,
                       digits=self.topology.route_tuple(mm, pe),
                       issued_cycle=cycle)

    # ------------------------------------------------------------------
    # network-side operation
    # ------------------------------------------------------------------
    def tick_outbound(self, cycle: int, inject: Callable[[int, Message], bool]) -> None:
        """Push the head request into stage 0 when the link is free (its
        Message is built for the first offer and kept if refused)."""
        queue = self._queue
        if not queue or cycle < self._link_busy_until:
            return
        head = queue[0]
        if type(head) is Request:
            head = queue[0] = self._message(head)
        if inject(self.pe_id, head):
            queue.popleft()
            self._link_busy_until = cycle + head.packets

    def deliver_reply(self, message: Message, cycle: int) -> bool:
        """Accept a reply from stage 0 (the PE side always has room)."""
        return self.deliver(message.tag, message.value, cycle)

    def deliver(self, tag: int, value: Optional[int], cycle: int) -> bool:
        """:meth:`deliver_reply` for the reply with ``tag`` carrying
        ``value`` (all the PE side reads of it)."""
        deliver_replies((self,), (tag,), (value,), cycle)
        return True

    @property
    def completed(self) -> deque[ReplyRecord]:
        """The replies received and not yet taken, oldest first (their
        records are built here, in place)."""
        replies = self._replies
        # rows only ever follow records in the deque
        if replies and type(replies[-1]) is tuple:
            records = [r if type(r) is ReplyRecord else ReplyRecord._make(r)
                       for r in replies]
            replies.clear()
            replies.extend(records)
        return replies

    def pop_reply(self) -> Optional[ReplyRecord]:
        if not self._replies:
            return None
        reply = self._replies.popleft()
        return reply if type(reply) is ReplyRecord else ReplyRecord._make(reply)

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
        if not self._queue:
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
        "_trace",
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
        # instrumentation (handles cached once; probes gate on _instr_on,
        # the trace's on whether one is kept)
        self._trace = instrumentation.trace if instrumentation.enabled else None
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
                if self._trace is not None:
                    self._trace.record(
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
