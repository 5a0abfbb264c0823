"""The combining ToMM queue (section 3.3.1, Figure 4).

Two models of the same component live here:

* :class:`CombiningQueue` — the *behavioral* model used inside the cycle
  simulator's switches: a FIFO of messages, searched associatively on
  insertion, combining a new request pairwise with a matching queued
  request.  It exposes packet-granular occupancy so finite queues follow
  the paper's simulation parameters (15 packets per queue in section
  4.2).

* :class:`SystolicQueue` — the *structural* model of the enhanced
  Guibas–Liang VLSI systolic queue of Figure 4: a middle column that new
  items ascend, a right column that queued items descend (exiting at the
  bottom), comparators between the columns, and a left "match column"
  that carries a matched item downward so that a combinable pair exits
  into the combining unit simultaneously.

Property tests assert that the structural queue preserves FIFO order,
sustains one insertion and one removal per cycle, and pairs exactly the
items the behavioral model pairs, which justifies using the behavioral
model in the large simulations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Optional, TypeVar

from ..core.combining import Combined, try_combine
from ..instrumentation import Histogram
from .message import Message


@dataclass(slots=True)
class _Slot:
    """A queued message plus its pairwise-combining status.

    The paper simplifies the switch by supporting "only combinations of
    pairs, since a request returning from memory could then match at most
    one request in the Wait Buffer"; ``already_combined`` enforces that a
    queued request absorbs at most one partner within this switch.
    """

    message: Message
    already_combined: bool = False


@dataclass(frozen=True, slots=True)
class InsertOutcome:
    """What happened when a message was offered to the queue.

    ``combined_with`` is the queued message the new request merged into
    (None when it was simply appended); ``plan`` carries the combining
    recipe the switch must register in its wait buffer.
    """

    queued: bool
    combined_with: Optional[Message] = None
    plan: Optional[Combined] = None


class QueueFullError(RuntimeError):
    """Raised when a message is forced into a queue lacking space."""


class CombiningQueue:
    """Behavioral combining FIFO with packet-granular capacity.

    Parameters
    ----------
    capacity_packets:
        Maximum queue occupancy in packets; ``None`` models the infinite
        queues of the analytic study (section 4.1 assumption 3).
    combining:
        When false the queue is a plain FIFO — the ablation baseline for
        the hot-spot experiments.
    pairwise_only:
        When true (the paper's switch), a queued request that has already
        absorbed a partner cannot absorb another; when false the switch
        models unlimited in-switch combining (ablation).
    occupancy_histogram:
        When given (an instrumented switch passes its stage's
        ``network.queue_occupancy_packets`` histogram of the queue's
        direction), every successful append observes the post-insert
        occupancy in it.

    The queue is on the switch fast path, so besides the classic
    :meth:`insert` the search and the two commit actions are exposed
    separately (:meth:`find_partner`, :meth:`commit_combine`,
    :meth:`append`) — a switch can then search *before* committing any
    message mutation, which is what makes refused offers side-effect
    free.

    The associative search is served by a keyed-address index: a dict
    from ``(mm, offset)`` to the queued slots carrying that address, in
    FIFO order, kept only by a combining queue (a plain FIFO is never
    searched).  :meth:`find_partner` therefore probes one key instead
    of scanning the whole queue — the same candidates in the same order
    as the linear scan (any earlier slot with the key precedes it in the
    per-key list too), so outcomes are identical; only the cost changes.
    Under pairwise combining a slot that absorbs its partner can never
    match again, so it is dropped from the index at commit time, keeping
    hot-spot key lists short even when the queue is deep.
    """

    __slots__ = (
        "capacity_packets",
        "combining",
        "pairwise_only",
        "_slots",
        "_by_key",
        "used_packets",
        "total_inserted",
        "total_combined",
        "peak_packets",
        "_occupancy_histogram",
    )

    def __init__(
        self,
        capacity_packets: Optional[int] = None,
        *,
        combining: bool = True,
        pairwise_only: bool = True,
        occupancy_histogram: Optional[Histogram] = None,
    ) -> None:
        self.capacity_packets = capacity_packets
        self.combining = combining
        self.pairwise_only = pairwise_only
        self._slots: deque[_Slot] = deque()
        self._by_key: dict[tuple[int, int], list[_Slot]] = {}
        self.used_packets = 0
        # statistics
        self.total_inserted = 0
        self.total_combined = 0
        self.peak_packets = 0
        self._occupancy_histogram = occupancy_histogram

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterable[Message]:  # pragma: no cover - debug aid
        return (slot.message for slot in self._slots)

    def can_accept(self, packets: int) -> bool:
        if self.capacity_packets is None:
            return True
        return self.used_packets + packets <= self.capacity_packets

    def find_partner(
        self, message: Message, *, combining: Optional[bool] = None
    ) -> Optional[tuple[_Slot, Combined]]:
        """Search for a queued combinable partner without committing.

        ``combining=False`` switches the search off for this offer
        (switches disable combining stage-locally for ablations without
        mutating shared queue state); a queue built without combining
        keeps no index and never finds a partner.
        """
        if not self.combining or combining is False or message.is_reply:
            return None
        candidates = self._by_key.get((message.mm, message.offset))
        if not candidates:
            return None
        pairwise_only = self.pairwise_only
        for slot in candidates:
            if pairwise_only and slot.already_combined:
                continue
            plan = try_combine(slot.message.op, message.op)
            if plan is not None:
                return slot, plan
        return None

    def _unindex(self, slot: _Slot) -> None:
        key = (slot.message.mm, slot.message.offset)
        candidates = self._by_key[key]
        if candidates[0] is slot:  # pops always hit the oldest of a key
            del candidates[0]
        else:
            candidates.remove(slot)
        if not candidates:
            del self._by_key[key]

    def commit_combine(self, slot: _Slot, message: Message, plan: Combined) -> None:
        """Merge ``message`` into the queued partner found by
        :meth:`find_partner` (the new request is deleted, per the paper)."""
        queued = slot.message
        old_packets = queued.packets
        queued.replace_op(plan.forward)
        queued.combine_depth = max(queued.combine_depth, message.combine_depth) + 1
        slot.already_combined = True
        if self.pairwise_only:
            # A pairwise slot can never match again; drop it from the
            # keyed index so hot-spot searches stay short.
            self._unindex(slot)
        self.used_packets += queued.packets - old_packets
        if self.used_packets > self.peak_packets:
            self.peak_packets = self.used_packets
        self.total_combined += 1

    def append(self, message: Message) -> None:
        """Enqueue without a combining search; raises when it cannot fit."""
        if not self.can_accept(message.packets):
            raise QueueFullError(
                f"queue full ({self.used_packets}/{self.capacity_packets} "
                f"packets) and message tag={message.tag} cannot combine"
            )
        slot = _Slot(message=message)
        self._slots.append(slot)
        if self.combining:
            self._by_key.setdefault((message.mm, message.offset), []).append(slot)
        self.used_packets += message.packets
        if self.used_packets > self.peak_packets:
            self.peak_packets = self.used_packets
        self.total_inserted += 1
        if self._occupancy_histogram is not None:
            self._occupancy_histogram.observe(self.used_packets)

    def insert(self, message: Message) -> InsertOutcome:
        """Offer a message; combine it into a queued partner if possible.

        Combining never consumes queue space (the new request is deleted
        from the ToMM queue, per the paper), so it succeeds even when the
        queue is full — callers should therefore attempt ``insert`` and
        only gate on :meth:`can_accept` when it returns un-combined.
        Raises :class:`QueueFullError` when the message cannot combine
        and does not fit.
        """
        partner = self.find_partner(message)
        if partner is not None:
            slot, plan = partner
            self.commit_combine(slot, message, plan)
            return InsertOutcome(queued=False, combined_with=slot.message, plan=plan)
        self.append(message)
        return InsertOutcome(queued=True)

    def head(self) -> Optional[Message]:
        return self._slots[0].message if self._slots else None

    def pop(self) -> Message:
        slot = self._slots.popleft()
        if self.combining and not (self.pairwise_only and slot.already_combined):
            self._unindex(slot)
        self.used_packets -= slot.message.packets
        return slot.message


# ----------------------------------------------------------------------
# Structural Guibas–Liang systolic queue (Figure 4)
# ----------------------------------------------------------------------

T = TypeVar("T")


@dataclass
class SystolicExit(Generic[T]):
    """What emerged from the bottom of the systolic queue this cycle.

    ``item`` came off the right (queue) column; ``matched`` — when not
    None — came off the left (match) column in the same cycle, which is
    the structure's guarantee that a combinable pair reaches the
    combining unit simultaneously.
    """

    item: T
    matched: Optional[T] = None


class SystolicQueue(Generic[T]):
    """Cycle-level structural model of the enhanced systolic queue.

    Items are opaque; ``match_fn(queued_item, new_item)`` decides whether
    a rising new item pairs with a descending queued item (mirroring the
    comparators added between the middle and right columns).  Matched
    queued items are tagged so each pairs at most once (pairwise-only
    combining).

    The paper's observations, all enforced here and checked by tests:

    * entries proceed in FIFO order;
    * as long as the queue is not empty and the next stage can receive,
      one item exits per cycle;
    * as long as the queue is not full, a new item can enter each cycle;
    * items are not delayed if the queue is empty and the next stage is
      ready (combinational fall-through).
    """

    def __init__(
        self,
        rows: int,
        match_fn: Callable[[T, T], bool],
    ) -> None:
        if rows < 1:
            raise ValueError("systolic queue needs at least one row")
        self.rows = rows
        self.match_fn = match_fn
        # Columns are indexed 0 (bottom) .. rows-1 (top).
        self.middle: list[Optional[T]] = [None] * rows
        self.right: list[Optional[T]] = [None] * rows
        self.left: list[Optional[T]] = [None] * rows
        #: queued items that have already been matched once.
        self._matched_once: set[int] = set()
        #: pairing decided but still descending: maps id(right item) -> left item
        self._pair_for: dict[int, T] = {}

    # -- capacity ------------------------------------------------------
    def is_full(self) -> bool:
        return self.middle[self.rows - 1] is not None

    def occupancy(self) -> int:
        return sum(x is not None for x in self.middle) + sum(
            x is not None for x in self.right
        )

    def insert(self, item: T) -> bool:
        """Offer an item to the bottom of the middle column."""
        if self.middle[0] is not None:
            return False
        self.middle[0] = item
        return True

    # -- one clock tick --------------------------------------------------
    def step(self, exit_ready: bool = True) -> Optional[SystolicExit[T]]:
        """Advance every column one position; return what exited, if any."""
        exited: Optional[SystolicExit[T]] = None

        # 1. Bottom of the right column exits (with its left partner).
        if exit_ready and self.right[0] is not None:
            item = self.right[0]
            partner = self._pair_for.pop(id(item), None)
            self._matched_once.discard(id(item))
            exited = SystolicExit(item=item, matched=partner)
            self.right[0] = None
            # The left column's bottom slot held the partner; clear it.
            if partner is not None:
                self.left[0] = None

        # 2. Right and left columns shift down where space permits.
        if exit_ready or self.right[0] is None:
            for row in range(1, self.rows):
                if self.right[row] is not None and self.right[row - 1] is None:
                    self.right[row - 1] = self.right[row]
                    self.right[row] = None
                if self.left[row] is not None and self.left[row - 1] is None:
                    self.left[row - 1] = self.left[row]
                    self.left[row] = None

        # 3. Middle-column items try to move right; on failure they rise.
        #    Comparators fire as a rising item passes a descending one.
        for row in range(self.rows - 1, -1, -1):
            item = self.middle[row]
            if item is None:
                continue
            right_item = self.right[row]
            if right_item is not None and id(right_item) not in self._matched_once:
                if self.match_fn(right_item, item):
                    # Match: the new item moves to the match column and
                    # will descend beside its partner.
                    self._matched_once.add(id(right_item))
                    self._pair_for[id(right_item)] = item
                    self.left[row] = item
                    self.middle[row] = None
                    continue
            if right_item is None and not self._row_blocked_for_entry(row):
                self.right[row] = item
                self.middle[row] = None
            elif row + 1 < self.rows and self.middle[row + 1] is None:
                self.middle[row + 1] = item
                self.middle[row] = None
            # else: stuck this cycle (queue nearly full).

        return exited

    def _row_blocked_for_entry(self, row: int) -> bool:
        """FIFO guard: an item may not slide right past older items.

        Entering the right column at ``row`` is only legal if no older
        item sits *above* in the right column (they descend; a new item
        slipping beneath them would overtake).  The physical queue gets
        this for free from its geometry; the model checks explicitly.
        """
        return any(self.right[r] is not None for r in range(row + 1, self.rows))

    def drain(self) -> list[SystolicExit[T]]:
        """Step until empty, collecting exits (testing aid)."""
        out: list[SystolicExit[T]] = []
        # Upper bound prevents livelock from a buggy step function.
        for _ in range(self.rows * (self.occupancy() + 2) * 4 + 8):
            exited = self.step(exit_ready=True)
            if exited is not None:
                out.append(exited)
            if self.occupancy() == 0:
                break
        return out
