"""The pipelined, message-switched combining network, any topology.

Assembles the stage grid a :class:`~repro.network.topology.Topology`
describes out of :class:`~repro.network.switch.Switch` instances and
wires it with one table of resolved targets per direction — static
wiring held as data, the generic form of the Omega assembly (section
3.1) — achieving the paper's design objectives wherever the geometry
allows:

1. bandwidth from pipelining + queues + combining;
2. latency of one cycle per traversed stage when queues are empty;
3. identical components throughout (one switch type, arity from the
   topology);
4. routing decisions local to each switch (destination-digit routing);
5. no performance penalty for concurrent access to a single cell
   (pairwise combining at every stage).

The network proper owns only the switches and the wiring; endpoints
(PNIs on the PE side, MNIs on the memory side) are connected through
sink callbacks so the same network serves the full machine, the
synthetic-traffic benchmarks, and the unit tests.  The paper's Omega
network is this class built over
:class:`~repro.network.topology.OmegaTopology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..instrumentation import DISABLED, Instrumentation
from .message import Message
from .switch import Switch
from .topology import Topology

#: Endpoint sinks: called with (endpoint index, message); return True to
#: accept the message this cycle.
Sink = Callable[[int, Message], bool]


@dataclass
class NetworkConfig:
    """Knobs of a network instance (the k/m/d space of section 4).

    ``queue_capacity_packets=None`` models the infinite queues of the
    analytic study; the paper's simulations use 15 packets.  ``copies``
    (the d of section 4.1) is realized by the machine layer instantiating
    several networks and striping traffic across them.  ``k`` is the
    Omega digit base; topologies with a fixed per-node degree (hypercube,
    mesh) size their switches themselves.
    """

    n_ports: int
    k: int = 2
    queue_capacity_packets: Optional[int] = None
    wait_buffer_capacity: Optional[int] = None
    combining: bool = True
    pairwise_only: bool = True


class MultistageNetwork:
    """A topology's stage grid of combining switches, fully wired."""

    def __init__(
        self,
        config: NetworkConfig,
        topology: Topology,
        *,
        instrumentation: Instrumentation = DISABLED,
    ) -> None:
        if topology.n_ports != config.n_ports:
            raise ValueError(
                f"topology has {topology.n_ports} ports but the network "
                f"config says {config.n_ports}"
            )
        self.config = config
        self.topology = topology
        self.instrumentation = instrumentation
        self.stages: list[list[Switch]] = [
            [
                Switch(
                    topology.switch_arity,
                    stage,
                    index,
                    queue_capacity_packets=config.queue_capacity_packets,
                    wait_buffer_capacity=config.wait_buffer_capacity,
                    combining=config.combining,
                    pairwise_only=config.pairwise_only,
                    instrumentation=instrumentation,
                )
                for index in range(topology.switches_per_stage)
            ]
            for stage in range(topology.stages)
        ]
        self.mm_sink: Optional[Sink] = None
        self.pe_sink: Optional[Sink] = None
        self.cycle = 0
        # Wake sets: per stage, the indices of the switches that hold
        # traffic in that direction.  An accepted offer adds its switch;
        # the step walks drop a switch once a tick leaves it empty.  A
        # switch outside the set holds nothing, and ticking an empty
        # switch is a no-op by construction, so walking only the set is
        # the every-switch sweep minus its no-op visits.
        self._fwd_awake: list[set[int]] = [set() for _ in range(topology.stages)]
        self._ret_awake: list[set[int]] = [set() for _ in range(topology.stages)]
        # Forward stage delays as (sum, count) per stage: a request that
        # entered stage s's queue on cycle c and is accepted by stage
        # s+1 (enqueued or absorbed by a combine) on cycle c' adds
        # c' - c to stage s.  These are exactly the hops
        # :meth:`repro.obs.spans.Span.stage_delays` reports; the stage a
        # request leaves the grid from is never counted.
        self.stage_delay_sum: list[int] = [0] * topology.stages
        self.stage_delay_count: list[int] = [0] * topology.stages
        self._build_wiring()

    # ------------------------------------------------------------------
    # static wiring
    # ------------------------------------------------------------------
    def _build_wiring(self) -> None:
        """Resolve the topology's wiring once, as data.

        ``forward_targets[stage][q]`` and ``return_targets[stage][q]``
        hold the target of output ``q = switch * switch_arity + port``
        as :meth:`~repro.network.topology.Topology.forward_target` and
        ``return_target`` give it (stages wired alike share one list).
        This is the network's only wiring: the switch ticks deliver
        through it (:meth:`_deliver_forward`/:meth:`_deliver_return`)
        and the batch kernel's message plane builds its arrays from it.
        """
        topo = self.topology
        arity = topo.switch_arity
        queues = range(topo.switches_per_stage * arity)

        def resolve(target_of: Callable[[int, int, int], Optional[tuple]]) -> list:
            rows: list[list] = []
            for stage in range(topo.stages):
                row = [target_of(stage, q // arity, q % arity) for q in queues]
                rows.append(rows[-1] if rows and rows[-1] == row else row)
            return rows

        self.forward_targets = resolve(topo.forward_target)
        self.return_targets = resolve(topo.return_target)

    def _unused(self, stage: int, q: int) -> AssertionError:
        arity = self.topology.switch_arity
        return AssertionError(
            f"message routed out unused port {q % arity} of switch "
            f"{q // arity} at stage {stage} — routing invariant broken"
        )

    # ------------------------------------------------------------------
    # delivery (the switches' ticks call these with their output index)
    # ------------------------------------------------------------------
    def _deliver_forward(self, stage: int, q: int, msg: Message) -> bool:
        """Offer the request leaving output ``q`` of ``stage`` to its
        target.  An accepted hop marks the receiving switch awake, which
        is how traffic propagates through the wake sets, and counts the
        sending stage's delay."""
        target = self.forward_targets[stage][q]
        if target is None:
            raise self._unused(stage, q)
        if target[0] != "switch":
            return self.mm_sink(target[1], msg)  # type: ignore[misc]
        _, index, port = target
        cycle = self.cycle
        if self.stages[stage + 1][index].offer_forward(port, msg, cycle):
            self._fwd_awake[stage + 1].add(index)
            self.stage_delay_sum[stage] += cycle - msg.enqueued_cycle
            self.stage_delay_count[stage] += 1
            msg.enqueued_cycle = cycle
            return True
        return False

    def _deliver_return(self, stage: int, q: int, msg: Message) -> bool:
        """Offer the reply leaving output ``q`` of ``stage`` to its
        target, marking the receiving switch awake on acceptance."""
        target = self.return_targets[stage][q]
        if target is None:
            raise self._unused(stage, q)
        if target[0] != "switch":
            return self.pe_sink(target[1], msg)  # type: ignore[misc]
        _, index, port = target
        if self.stages[stage - 1][index].offer_return(port, msg, self.cycle):
            self._ret_awake[stage - 1].add(index)
            return True
        return False

    # ------------------------------------------------------------------
    # endpoint attachment
    # ------------------------------------------------------------------
    def connect(self, *, mm_sink: Sink, pe_sink: Sink) -> None:
        self.mm_sink = mm_sink
        self.pe_sink = pe_sink

    # ------------------------------------------------------------------
    # injection (PNI -> stage 0, MNI -> the reply-entry stage)
    # ------------------------------------------------------------------
    def offer_request(self, pe: int, message: Message) -> bool:
        """Inject a request from PE ``pe`` into the first stage.

        The PNI issues a request with its topology's interned route
        tuple; from the first offer on the digits are network state, so
        the request gets the private list the switches rewrite (once: a
        refused offer leaves the list with the request for the retry)."""
        if type(message.digits) is tuple:
            message.digits = list(message.digits)
        switch_index, in_port = self.topology.inject_point(pe)
        if self.stages[0][switch_index].offer_forward(in_port, message, self.cycle):
            self._fwd_awake[0].add(switch_index)
            message.enqueued_cycle = self.cycle
            return True
        return False

    def offer_reply(self, mm: int, message: Message) -> bool:
        """Inject a reply from MM ``mm`` at the stage its request left
        the grid (the last stage for Omega; the origin's hop distance
        for direct topologies)."""
        stage, switch_index, mm_port = self.topology.reply_entry(
            mm, message.origin
        )
        if self.stages[stage][switch_index].offer_return(mm_port, message, self.cycle):
            self._ret_awake[stage].add(switch_index)
            return True
        return False

    # ------------------------------------------------------------------
    # cycle advance
    # ------------------------------------------------------------------
    def step_forward(self) -> None:
        """Move requests one hop toward memory (downstream stages first,
        so a message advances at most one stage per cycle while freed
        queue slots are reusable within the cycle — full pipelining).

        Each stage visits only its awake switches, in ascending index:
        the offer order, which decides who wins the last slot of a
        filling downstream queue, is the every-switch sweep's, and the
        switches skipped hold no requests to offer.
        """
        if self.mm_sink is None:
            raise RuntimeError("network endpoints not connected")
        cycle = self.cycle
        deliver = self._deliver_forward
        for stage in range(self.topology.stages - 1, -1, -1):
            awake = self._fwd_awake[stage]
            if awake:
                row = self.stages[stage]
                for index in sorted(awake):
                    if not row[index].tick_forward(cycle, deliver):
                        awake.discard(index)

    def step_return(self) -> None:
        """Move replies one hop toward the PEs (PE-side stages first),
        visiting only the awake switches as :meth:`step_forward` does."""
        if self.pe_sink is None:
            raise RuntimeError("network endpoints not connected")
        cycle = self.cycle
        deliver = self._deliver_return
        for stage in range(self.topology.stages):
            awake = self._ret_awake[stage]
            if awake:
                row = self.stages[stage]
                for index in sorted(awake):
                    if not row[index].tick_return(cycle, deliver):
                        awake.discard(index)

    def advance_cycle(self) -> None:
        self.cycle += 1

    # ------------------------------------------------------------------
    # wake contract (the dense kernel's quiet-cycle fast-forward)
    # ------------------------------------------------------------------
    def has_traffic(self) -> bool:
        """True when some switch holds a resident message."""
        return any(self._fwd_awake) or any(self._ret_awake)

    def fast_forward(self, delta: int) -> None:
        """Advance the clock over quiet cycles.

        Only called when :meth:`has_traffic` is false: with no resident
        messages nothing in a switch ticks, so the closed form of
        ``delta`` dense cycles is just the clock advance.
        """
        self.cycle += delta

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_messages(self) -> int:
        return sum(
            switch.pending_messages() for row in self.stages for switch in row
        )

    def pending_wait_records(self) -> int:
        return sum(
            switch.pending_wait_records() for row in self.stages for switch in row
        )

    def total_combines(self) -> int:
        return sum(switch.stats.combines for row in self.stages for switch in row)

    def total_decombines(self) -> int:
        return sum(switch.stats.decombines for row in self.stages for switch in row)

    def is_drained(self) -> bool:
        return self.pending_messages() == 0 and self.pending_wait_records() == 0


def pooled_stage_delays(
    networks: Iterable[MultistageNetwork],
) -> dict[int, tuple[int, int]]:
    """``stage -> (sum, count)`` of the forward stage delays of every
    network copy, for the stages with a counted hop, in stage order —
    the pooling :meth:`repro.obs.spans.SpanSet.stage_delays` does over
    the spans of a traced run, without the trace."""
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    for network in networks:
        for stage, (total, count) in enumerate(
            zip(network.stage_delay_sum, network.stage_delay_count)
        ):
            if count:
                sums[stage] = sums.get(stage, 0) + total
                counts[stage] = counts.get(stage, 0) + count
    return {stage: (sums[stage], counts[stage]) for stage in sorted(counts)}
