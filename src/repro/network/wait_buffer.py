"""The switch wait buffer (section 3.3).

When a switch combines request R-new into queued request R-old, it
records in its wait buffer everything needed to satisfy R-new once
R-old's reply returns: "each entry sent to the wait buffer consists of
the address of R-old (the entry key); the address of R-new; and, in the
case of a combined fetch-and-add, a datum."

In this reproduction the entry key is the forwarded message's tag
(unique per outstanding request, because "the PNI is to prohibit a PE
from having more than one outstanding reference to the same memory
location" and tags are globally unique anyway), and the stored
information is the decombining recipe from
:mod:`repro.core.combining` plus R-new's network identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.combining import Combined
from ..instrumentation import Histogram
from .message import Message


@dataclass(slots=True)
class WaitRecord:
    """Everything needed to regenerate R-new's reply at this switch."""

    key_tag: int
    plan: Combined
    new_message: Message  # R-new as captured at combine time (digits frozen)
    stage: int
    created_cycle: int = 0


class WaitBufferFullError(RuntimeError):
    """Raised when a combine is attempted with no wait-buffer space.

    The switch avoids this by disabling combining while its wait buffer
    is full; the error class exists so tests can assert the guard works.
    """


class WaitBuffer:
    """Associative store of pending decombining records.

    Supports the operations the paper requires: insertion, associative
    search (with or without removal), and an occupancy bound.  The paper
    suggests two buffers per switch "if access to a single wait buffer
    is rate limiting"; we model one per ToMM queue, the finer-grained
    option it also sanctions.

    With the paper's pairwise-only switch each key holds at most one
    record; in the unlimited-combining ablation a key may hold a *stack*
    of records — one per absorbed partner — unwound most-recent-first at
    decombine time (the innermost combine is the last one performed, so
    its rule applies to the raw memory reply).
    """

    __slots__ = (
        "capacity",
        "_records",
        "_occupancy",
        "peak_occupancy",
        "total_insertions",
        "_occupancy_histogram",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        occupancy_histogram: Optional[Histogram] = None,
    ) -> None:
        self.capacity = capacity
        self._records: dict[int, list[WaitRecord]] = {}
        self._occupancy = 0
        self.peak_occupancy = 0
        self.total_insertions = 0
        # instrumentation: post-insert occupancy, in the stage's
        # histogram an instrumented switch passes (residency is observed
        # by the switch, which knows the decombine cycle).
        self._occupancy_histogram = occupancy_histogram

    def __len__(self) -> int:
        return self._occupancy

    @property
    def occupancy(self) -> int:
        """Pending decombine records (alias of ``len()`` for sampling)."""
        return self._occupancy

    def is_full(self) -> bool:
        return self.capacity is not None and self._occupancy >= self.capacity

    def insert(self, record: WaitRecord) -> None:
        if self.is_full():
            raise WaitBufferFullError(
                f"wait buffer at capacity {self.capacity}; combining should "
                "have been disabled by the switch guard"
            )
        self._records.setdefault(record.key_tag, []).append(record)
        self._occupancy += 1
        self.total_insertions += 1
        self.peak_occupancy = max(self.peak_occupancy, self._occupancy)
        if self._occupancy_histogram is not None:
            self._occupancy_histogram.observe(self._occupancy)

    def peek(self, tag: int) -> Optional[WaitRecord]:
        """Most recent record for a key, without removal."""
        stack = self._records.get(tag)
        return stack[-1] if stack else None

    def peek_all(self, tag: int) -> Sequence[WaitRecord]:
        """All records for a key, oldest first, without removal.

        Most replies match nothing, so the miss path returns a shared
        empty tuple instead of allocating a fresh list per lookup.
        """
        stack = self._records.get(tag)
        return list(stack) if stack else ()

    def match(self, tag: int) -> Optional[WaitRecord]:
        """Pop the most recent record for a key (innermost combine)."""
        stack = self._records.get(tag)
        if not stack:
            return None
        record = stack.pop()
        if not stack:
            del self._records[tag]
        self._occupancy -= 1
        return record

    def match_all(self, tag: int) -> list[WaitRecord]:
        """Pop every record for a key, most recent first."""
        stack = self._records.pop(tag, [])
        self._occupancy -= len(stack)
        return list(reversed(stack))

    def pending_tags(self) -> set[int]:  # pragma: no cover - debug aid
        return set(self._records)
