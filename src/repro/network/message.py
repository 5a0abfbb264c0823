"""Network messages and the amalgamated return-address scheme.

Section 3.1.1 observes that a message-switched Omega network need not
carry both the origin and destination addresses: "When a message first
enters the network, its origin is determined by the input port, so only
the destination address is needed.  Switches at the j-th stage route
messages based on bit mj and then replace this bit with the PE number bit
pj, which equals the number of the input port on which the message
arrived.  Thus, when the message reaches its destination, the return
address is available."

:class:`Message` realizes that scheme with a digit vector (base ``k``
for k-by-k switches): a request is issued carrying its destination's
interned route, and the network it is first offered to rewrites a
private copy.  Packet accounting follows the paper's simulation model
(section 4.2): a message is one packet if it carries no data word and
three packets otherwise.

Messages are the unit of work on the per-cycle fast path, so the class is
slotted and the packet count is computed once at construction and
refreshed only at the two places a message legally mutates in flight: a
combining queue rewriting ``op`` (:meth:`replace_op`) and a decombining
switch rewriting a reply's ``value`` (:meth:`set_value`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.memory_ops import PACKETS_WITH_DATA, PACKETS_WITHOUT_DATA, Op

__all__ = [
    "Message",
    "PACKETS_WITHOUT_DATA",
    "PACKETS_WITH_DATA",
    "packets_for",
]

_message_ids = itertools.count()


def packets_for(carries_data: bool) -> int:
    return PACKETS_WITH_DATA if carries_data else PACKETS_WITHOUT_DATA


@dataclass(slots=True)
class Message:
    """A request or reply traversing the network.

    Attributes
    ----------
    op:
        The memory operation being transported.  For replies this is the
        operation that was *performed* at the MNI (which, after
        combining, may differ in kind from what the original PE issued;
        PNIs match replies by ``tag``, never by kind).
    mm:
        Destination memory-module number (requests) / origin module
        (replies); kept for statistics and assertions.
    offset:
        Address within the module.
    origin:
        Issuing PE number; carried for bookkeeping and trace legibility —
        the routing hardware only ever uses :attr:`digits`.
    tag:
        Unique identifier assigned by the PNI; wait buffers and PNIs key
        on it.
    digits:
        The amalgam address, most-significant digit first.  On the
        forward path, stage ``s`` routes on ``digits[s]`` and overwrites
        it with the arrival port; on the return path, stage ``s`` routes
        on ``digits[s]``.  A request is issued with its topology's
        interned route tuple (only the destination is needed to enter
        the network), shared by every request to that destination,
        until a network is first offered it: that network makes the
        mutable list the switches rewrite
        (``MultistageNetwork.offer_request``), which stays with the
        request if the offer is refused.  A batch kernel keeps the
        digits in its arrays instead.
    is_reply:
        Direction flag.
    value:
        Data word carried by a reply (None for store acknowledgements).
    combine_depth:
        How many pairwise combines formed this request (0 for a pristine
        request); statistics only.
    packets:
        Cached packet count (section 4.2 model); kept consistent by
        :meth:`replace_op` / :meth:`set_value` at the only mutation sites.
    enqueued_cycle:
        Cycle of the request's latest enqueue into a forward (ToMM)
        queue; the network counts the gap to its next acceptance as that
        stage's delay (see :class:`~repro.network.multistage.MultistageNetwork`).
    """

    op: Op
    mm: int
    offset: int
    origin: int
    tag: int
    digits: Sequence[int]
    is_reply: bool = False
    value: Optional[int] = None
    combine_depth: int = 0
    issued_cycle: int = 0
    uid: int = field(default_factory=_message_ids.__next__)
    packets: int = field(init=False, default=0)
    enqueued_cycle: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.is_reply:
            self.packets = (
                PACKETS_WITH_DATA if self.value is not None else PACKETS_WITHOUT_DATA
            )
        else:
            self.packets = self.op.request_packets

    def replace_op(self, op: Op) -> None:
        """Swap the transported operation (combining), refreshing packets."""
        self.op = op
        if not self.is_reply:
            self.packets = op.request_packets

    def set_value(self, value: Optional[int]) -> None:
        """Rewrite a reply's data word (decombining), refreshing packets."""
        self.value = value
        if self.is_reply:
            self.packets = (
                PACKETS_WITH_DATA if value is not None else PACKETS_WITHOUT_DATA
            )

    def route_digit(self, stage: int) -> int:
        return self.digits[stage]

    def record_arrival_port(self, stage: int, port: int) -> None:
        """Overwrite the consumed destination digit with the origin digit
        (on a network's private list, never the interned route)."""
        self.digits[stage] = port

    def make_reply(self, value: Optional[int]) -> "Message":
        """Turn this request around at the memory side (MNI action).

        The digit vector at this point holds the origin amalgam written
        by the switches, so the reply can reuse it unchanged.
        """
        return Message(
            op=self.op,
            mm=self.mm,
            offset=self.offset,
            origin=self.origin,
            tag=self.tag,
            digits=list(self.digits),
            is_reply=True,
            value=value,
            combine_depth=self.combine_depth,
            issued_cycle=self.issued_cycle,
        )

    def combining_key(self) -> tuple[int, int]:
        """Queue-search key: the memory cell this request targets.

        The paper keys on (function, MM number, internal address); we key
        on the cell and let :func:`repro.core.combining.try_combine`
        decide function compatibility, which subsumes the paper's
        homogeneous-function restriction and its heterogeneous
        extensions.
        """
        return (self.mm, self.offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        direction = "reply" if self.is_reply else "req"
        return (
            f"<Message {direction} tag={self.tag} op={self.op.kind.value} "
            f"mm={self.mm} off={self.offset} origin={self.origin} "
            f"digits={self.digits} value={self.value}>"
        )
