"""The Ultracomputer: full machine assembly (section 3, Figure 1).

``N = k**D`` processing elements attach through processor network
interfaces (PNIs) to a combining Omega network, whose memory side feeds
N memory-network interfaces (MNIs), each fronting one memory module
(MM).  This module wires those components into a single cycle-accurate
machine and drives MIMD programs on it using the same generator-coroutine
protocol as the idealized :class:`~repro.core.paracomputer.Paracomputer`
— so any program can be run on both and its memory effects compared,
which is exactly the sense in which the paper claims the Ultracomputer
"appears to the user as a paracomputer".
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional, Protocol

from ..instrumentation import DISABLED, Instrumentation
from ..memory.hashing import AddressTranslation, make_translation
from ..memory.module import BankedMemory
from ..network.interfaces import MNI, PNI
from ..network.message import Message
from ..network.multistage import MultistageNetwork, NetworkConfig
from ..network.topology import make_topology, topology_names, validate_topology_size
from .memory_ops import PACKETS_WITH_DATA, Op
from .paracomputer import Program, ProgramFactory
from .results import PEResult, RunResult
from .scheduler import kernel_names, make_kernel

__all__ = [
    "Driver",
    "MachineConfig",
    "ProgramDriver",
    "RunResult",
    "Ultracomputer",
]

#: Translation schemes :func:`repro.memory.hashing.make_translation`
#: accepts; validated up front so a typo fails at construction, not
#: deep inside the wiring.
_TRANSLATION_SCHEMES = ("interleaved", "blocked", "hashed")


@dataclass
class MachineConfig:
    """Configuration of an Ultracomputer instance.

    Defaults follow the paper's network simulation (section 4.2): 15
    packets of queueing per switch port and a memory access time of two
    network cycles.
    """

    n_pes: int
    k: int = 2
    mm_latency: int = 2
    queue_capacity_packets: Optional[int] = 15
    wait_buffer_capacity: Optional[int] = None
    combining: bool = True
    pairwise_only: bool = True
    translation: str = "interleaved"
    words_per_module: int = 1 << 16
    max_outstanding: Optional[int] = None
    #: number of network copies (the d of section 4.1).  Requests are
    #: striped across copies by tag; replies return on the copy that
    #: carried the request (the amalgam digits live in its switches).
    copies: int = 1
    #: MNI input buffering in packets; None is unbounded.  A finite
    #: value backpressures the last network stage when a module falls
    #: behind — the hot-module phenomenon of section 3.1.4 made visible
    #: in the network instead of only at the module.
    mni_inbound_capacity_packets: Optional[int] = None
    #: enable the metrics registry (off by default; disabled probes cost
    #: one attribute check, guarded <5% by the overhead benchmark).
    instrument: bool = False
    #: ring-buffer capacity of the cycle-level event trace; 0 disables
    #: tracing.  Requires ``instrument=True``.
    trace_capacity: int = 0
    #: simulation kernel: ``"dense"`` executes every cycle in which
    #: something can act, visiting the components that can act (the
    #: reference semantics), and fast-forwards over globally quiet
    #: cycles; ``"batch"`` keeps every in-flight message in
    #: struct-of-arrays form and moves a whole stage of them per
    #: vectorized step — the 1024–4096-PE scaling kernel (the switch
    #: and MNI objects are written back when the machine's public
    #: readers are used).  ``"event"`` is an alias of ``"dense"``, kept
    #: only while the benchmark's kernel table reads it.
    #: All kernels produce bit-identical results; valid names come from
    #: the pluggable registry in :mod:`repro.core.scheduler`.
    kernel: str = "dense"
    #: network geometry, resolved through the topology registry in
    #: :mod:`repro.network.topology`: ``"omega"`` (the paper's machine),
    #: ``"hypercube"`` (binary, dimension-order routing), or ``"mesh"``
    #: (square 2-D, XY routing).  All run the same combining switches;
    #: each constrains ``n_pes`` to its own valid sizes.
    topology: str = "omega"

    def validate(self) -> None:
        """Reject inconsistent configurations with actionable messages.

        Called from :class:`Ultracomputer.__init__`, so a bad config
        fails here instead of deep inside the network wiring.
        """
        if self.k < 2:
            raise ValueError(
                f"switch arity k={self.k} is invalid; the network needs "
                "k >= 2 (the paper's switches are 2x2)"
            )
        if self.topology not in topology_names():
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from "
                f"{sorted(topology_names())}"
            )
        # Per-topology port-count rules (each names the nearest valid
        # sizes in its error, e.g. "n_pes=100 ... nearest valid sizes
        # are 64 and 128" for omega at k=2).
        validate_topology_size(self.topology, self.n_pes, self.k)
        if self.copies < 1:
            raise ValueError(
                f"copies={self.copies} is invalid; the machine needs at "
                "least one network copy (section 4.1's d >= 1)"
            )
        if self.mm_latency < 1:
            raise ValueError(
                f"mm_latency={self.mm_latency} is invalid; memory access "
                "takes at least one network cycle"
            )
        if (self.queue_capacity_packets is not None
                and self.queue_capacity_packets < PACKETS_WITH_DATA):
            # A data-carrying message (a store or F&A request, a load
            # reply) could never enter such a queue, so the run wedges.
            raise ValueError(
                f"queue_capacity_packets={self.queue_capacity_packets} is "
                "invalid; use None for unbounded queues or a capacity >= "
                f"{PACKETS_WITH_DATA} (PACKETS_WITH_DATA, the packets of "
                "a message that carries data)"
            )
        if self.wait_buffer_capacity is not None and self.wait_buffer_capacity < 0:
            raise ValueError(
                f"wait_buffer_capacity={self.wait_buffer_capacity} is "
                "invalid; use None for unbounded wait buffers or a "
                "capacity >= 0 (0 disables combining entirely)"
            )
        if self.mni_inbound_capacity_packets is not None and (
            self.mni_inbound_capacity_packets < 1
        ):
            raise ValueError(
                f"mni_inbound_capacity_packets="
                f"{self.mni_inbound_capacity_packets} is invalid; use None "
                "for unbounded MNI buffers or a capacity >= 1"
            )
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError(
                f"max_outstanding={self.max_outstanding} is invalid; use "
                "None for an unlimited pipeline window or a window >= 1"
            )
        if self.words_per_module < 1:
            raise ValueError(
                f"words_per_module={self.words_per_module} is invalid; "
                "each memory module needs at least one word"
            )
        if self.translation not in _TRANSLATION_SCHEMES:
            raise ValueError(
                f"unknown translation scheme {self.translation!r}; choose "
                f"from {sorted(_TRANSLATION_SCHEMES)}"
            )
        if self.trace_capacity < 0:
            raise ValueError(
                f"trace_capacity={self.trace_capacity} is invalid; use 0 "
                "to disable tracing or a positive event count"
            )
        if self.trace_capacity > 0 and not self.instrument:
            raise ValueError(
                "trace_capacity > 0 requires instrument=True; the cycle "
                "trace rides on the instrumentation layer"
            )
        if self.kernel not in kernel_names():
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from "
                f"{sorted(kernel_names())}"
            )

    # -- canonical serialization (the experiment subsystem rides on
    # this: specs embed machine configs and hash their JSON form) ------
    def to_dict(self) -> dict[str, Any]:
        """Every field, in declaration order, as JSON-ready values.

        The inverse of :meth:`from_dict`:
        ``MachineConfig.from_dict(cfg.to_dict()) == cfg`` for any valid
        config, and the dict contains only scalars, so its canonical
        JSON is a stable content address.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MachineConfig":
        """Rebuild a config from :meth:`to_dict` output (or any mapping
        of field names; unknown keys are rejected, missing ones take
        their defaults — ``n_pes`` alone is required)."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown MachineConfig field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**dict(payload))

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            n_ports=self.n_pes,
            k=self.k,
            queue_capacity_packets=self.queue_capacity_packets,
            wait_buffer_capacity=self.wait_buffer_capacity,
            combining=self.combining,
            pairwise_only=self.pairwise_only,
        )


class Driver(Protocol):
    """Anything that issues work into the machine each cycle.

    Program PEs, synthetic traffic sources, and instrumented workload
    replayers all implement this protocol.  Drivers tick in phase 6 in
    list order; the machine's :class:`ProgramDriver` is ``drivers[0]``,
    so attached drivers tick after it has consumed its PEs' replies.
    A driver that consumes replies can drain the machine's shared
    replied set (every PNI joins it on delivery) instead of polling
    every PNI.

    Drivers may additionally implement the wake contract the kernels'
    quiet-cycle fast-forward honours (see :mod:`repro.core.scheduler`):
    ``next_event_cycle(cycle)`` returning the earliest cycle at which
    ``tick`` would do anything beyond closed-form counter updates
    (``None`` when purely waiting on in-flight traffic), and
    ``fast_forward(delta)`` applying those counter updates for
    ``delta`` skipped cycles, now or when the counters are next read.
    Drivers without the contract are ticked every cycle, so stochastic
    open-loop sources stay bit-identical.
    """

    def tick(self, cycle: int) -> None:
        """Issue requests / consume replies for this cycle."""

    def done(self) -> bool:
        """True when the driver will issue no further traffic."""


@dataclass(slots=True)
class _ProgramPE:
    """A blocking coroutine PE: issues one reference at a time.

    This matches the conservative PE of section 3.5 before prefetching
    is enabled (an attempt to use a locked register suspends execution);
    the richer overlap model lives in :mod:`repro.pe.processor`.
    ``idle_cycles`` and ``compute_remaining`` are current only after
    :meth:`ProgramDriver.sync`.
    """

    pe_id: int
    program: Program
    pni: PNI
    running: bool = True
    compute_remaining: int = 0
    waiting_tag: Optional[int] = None
    pending_op: Optional[Op] = None
    return_value: Any = None
    finished_cycle: Optional[int] = None
    compute_cycles: int = 0
    ops_issued: int = 0
    idle_cycles: int = 0


class ProgramDriver:
    """Runs generator-coroutine programs on the machine's PEs.

    Every kernel runs the machine's PEs through this one driver, and a
    tick visits only the PEs that act, in ascending PE order (so tags
    and the trace follow a full sweep's order):

    * newly spawned PEs, whose generators are primed;
    * PEs holding an op, retried on ``can_issue`` every tick and
      charged one idle cycle per refused try;
    * computing PEs whose countdown reaches zero this cycle, kept in
      buckets keyed by that cycle;
    * waiting PEs whose reply arrived, found in the machine's shared
      replied set.  The machine's own driver is ``drivers[0]``, so it
      ticks before any attached driver; it discards from the set only
      the PEs it consumed.

    The other PEs cost nothing per cycle, so two counters are lazy: a
    waiting PE's ``idle_cycles`` accrue from the cycle it issued, and a
    computing PE's ``compute_remaining`` follows from its due cycle.
    :meth:`sync` settles both; ``Ultracomputer.stats()`` calls it.  It
    settles against the driver's own :attr:`clock` — one past its last
    tick, advanced by :meth:`fast_forward` — because a driver that reads
    in phase 6 of cycle ``c`` sees ``machine.cycle == c`` after this
    driver's tick of ``c``.
    """

    def __init__(self, machine: "Ultracomputer") -> None:
        self.machine = machine
        self.pes: list[_ProgramPE] = []
        #: one past the last cycle ticked or fast-forwarded over
        self.clock = machine.cycle
        self._replied = machine._pni_replied
        self._fresh: list[int] = []
        self._pending: set[int] = set()
        #: waiting PE -> first cycle not yet charged to its idle_cycles
        self._waiting: dict[int, int] = {}
        #: cycle a countdown reaches zero -> the PEs computing until then
        self._due: dict[int, list[int]] = {}
        self._due_cycles: list[int] = []  # heap of _due's keys

    def spawn(self, program_fn: ProgramFactory, *args: Any, **kwargs: Any) -> int:
        pe_id = len(self.pes)
        if pe_id >= self.machine.config.n_pes:
            raise ValueError(
                f"machine has only {self.machine.config.n_pes} PEs"
            )
        program = program_fn(pe_id, *args, **kwargs)
        self.pes.append(
            _ProgramPE(pe_id=pe_id, program=program, pni=self.machine.pnis[pe_id])
        )
        self._fresh.append(pe_id)
        return pe_id

    def spawn_many(
        self, n: int, program_fn: ProgramFactory, *args: Any, **kwargs: Any
    ) -> list[int]:
        return [self.spawn(program_fn, *args, **kwargs) for _ in range(n)]

    def _advance(self, pe: _ProgramPE, sent: Any, cycle: int) -> None:
        try:
            yielded = pe.program.send(sent)
        except StopIteration as stop:
            pe.running = False
            pe.finished_cycle = cycle
            pe.return_value = stop.value
            return
        if yielded is None:
            delay = 1
        elif isinstance(yielded, Op):
            pe.pending_op = yielded
            self._pending.add(pe.pe_id)
            return
        elif isinstance(yielded, int):
            if yielded <= 0:
                raise ValueError(f"PE {pe.pe_id} yielded non-positive delay")
            delay = yielded
        else:
            raise TypeError(
                f"PE {pe.pe_id} yielded {yielded!r}; programs must yield an "
                "Op, None, or a positive integer delay"
            )
        pe.compute_remaining = delay
        pe.compute_cycles += delay
        due = cycle + delay
        bucket = self._due.get(due)
        if bucket is None:
            self._due[due] = [pe.pe_id]
            heapq.heappush(self._due_cycles, due)
        else:
            bucket.append(pe.pe_id)

    def tick(self, cycle: int) -> None:
        self.clock = cycle + 1
        waiting = self._waiting
        acting: list[int] = []
        if waiting and self._replied:
            replied = waiting.keys() & self._replied
            self._replied.difference_update(replied)
            acting.extend(replied)
        due_cycles = self._due_cycles
        while due_cycles and due_cycles[0] <= cycle:
            acting += self._due.pop(heapq.heappop(due_cycles))
        acting += self._pending
        if self._fresh:
            acting += self._fresh
            self._fresh = []
        acting.sort()
        pes = self.pes
        for i in acting:
            pe = pes[i]
            if pe.waiting_tag is not None:
                reply = pe.pni.pop_reply()
                if reply is None:
                    continue  # a stale mark: a polling driver took that reply
                assert reply.tag == pe.waiting_tag
                pe.waiting_tag = None
                pe.idle_cycles += cycle - waiting.pop(i)
                self._advance(pe, reply.value, cycle)
            elif pe.compute_remaining > 0:
                pe.compute_remaining = 0
                self._advance(pe, None, cycle)
            elif pe.pending_op is not None:
                op = pe.pending_op
                if pe.pni.can_issue(op):
                    pe.waiting_tag = pe.pni.issue(op, cycle)
                    pe.pending_op = None
                    pe.ops_issued += 1
                    self._pending.discard(i)
                    waiting[i] = cycle + 1
                else:
                    pe.idle_cycles += 1
            else:
                # Fresh PE: prime the generator.
                self._advance(pe, None, cycle)

    def done(self) -> bool:
        return not (self._fresh or self._pending or self._waiting or self._due)

    def sync(self) -> None:
        """Settle the lazy counters (waiting PEs' ``idle_cycles``,
        computing PEs' ``compute_remaining``) as of :attr:`clock`."""
        clock = self.clock
        pes = self.pes
        for i, since in self._waiting.items():
            pes[i].idle_cycles += clock - since
        self._waiting = dict.fromkeys(self._waiting, clock)
        for due, bucket in self._due.items():
            for i in bucket:
                pes[i].compute_remaining = due - clock + 1

    # -- wake contract of the fast-forward (see repro.core.scheduler) ----
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle at which some PE does more than bump counters:
        now if a PE is fresh, has its reply, or can issue its op;
        otherwise the earliest due cycle of a computing PE."""
        if self._fresh or not self._waiting.keys().isdisjoint(self._replied):
            return cycle
        pes = self.pes
        for i in self._pending:
            if pes[i].pni.can_issue(pes[i].pending_op):
                return cycle
        return self._due_cycles[0] if self._due_cycles else None

    def fast_forward(self, delta: int) -> None:
        """Skip ``delta`` cycles: blocked PEs are charged them now,
        waiting and computing PEs when next settled."""
        self.clock += delta
        pes = self.pes
        for i in self._pending:
            pes[i].idle_cycles += delta

    # -- statistics ------------------------------------------------------
    @property
    def return_values(self) -> dict[int, Any]:
        return {pe.pe_id: pe.return_value for pe in self.pes if not pe.running}

    @property
    def total_idle_cycles(self) -> int:
        return sum(pe.idle_cycles for pe in self.pes)

    @property
    def total_compute_cycles(self) -> int:
        return sum(pe.compute_cycles for pe in self.pes)

    @property
    def total_ops(self) -> int:
        return sum(pe.ops_issued for pe in self.pes)


class Ultracomputer:
    """Cycle-accurate model of the complete machine."""

    def __init__(self, config: MachineConfig) -> None:
        config.validate()
        self.config = config
        self.instrumentation = (
            Instrumentation(enabled=True, trace_capacity=config.trace_capacity)
            if config.instrument
            else DISABLED
        )
        # One topology instance shared by every network copy: it is pure
        # combinatorics, and sharing it shares the interned route cache.
        self.topology = make_topology(config.topology, config.n_pes, config.k)
        # The kernels read the private lists; the public ``networks`` and
        # ``mnis`` properties bring the object view up to date first.
        self._networks = [
            MultistageNetwork(
                config.network_config(),
                self.topology,
                instrumentation=self.instrumentation,
            )
            for _ in range(config.copies)
        ]
        self.memory = BankedMemory(
            config.n_pes,
            latency=config.mm_latency,
            instrumentation=self.instrumentation,
        )
        self.translation: AddressTranslation = make_translation(
            config.translation, config.n_pes, config.words_per_module
        )
        # MM indices whose MNI holds inbound or in-service work: an MNI
        # adds itself on accepting a request, and the dense kernel drops
        # one when its tick leaves it empty.
        self._mni_busy: set[int] = set()
        self._mnis = [
            MNI(
                module,
                inbound_capacity_packets=config.mni_inbound_capacity_packets,
                instrumentation=self.instrumentation,
                busy=self._mni_busy,
            )
            for module in self.memory.modules
        ]
        # Machine-local tag stream: every machine assigns tags 1, 2, ...
        # in issue order, so two identically configured machines running
        # the same workload produce identical messages, traces, and copy
        # striping — the property the kernel-equivalence tests rely on.
        self._tags = itertools.count(1)
        # PE ids whose PNI has queued requests: every PNI adds itself on
        # issue, and the batch kernel removes it when it drains that
        # PNI (the other kernels never read the set, so they leave it a
        # superset).
        self._pni_ready: set[int] = set()
        # PE ids whose PNI received a reply: every PNI adds itself on
        # delivery, and a driver that consumes replies drains the set in
        # ascending-PE order instead of polling every PNI.
        self._pni_replied: set[int] = set()
        self.pnis = [
            PNI(
                pe,
                self.topology,
                self.translation,
                max_outstanding=config.max_outstanding,
                instrumentation=self.instrumentation,
                tag_counter=self._tags,
                ready=self._pni_ready,
                replied=self._pni_replied,
            )
            for pe in range(config.n_pes)
        ]
        for network in self._networks:
            network.connect(mm_sink=self._mm_sink, pe_sink=self._pe_sink)
        self.cycle = 0
        self._healthy_copies: list[int] = list(range(config.copies))
        self._copy_by_tag: dict[int, int] = {}
        self.drivers: list[Driver] = []
        self.programs = ProgramDriver(self)
        self.drivers.append(self.programs)
        self.kernel = make_kernel(config.kernel, self)

    # ------------------------------------------------------------------
    # the object view (public readers sync it from the kernel first)
    # ------------------------------------------------------------------
    @property
    def networks(self) -> list[MultistageNetwork]:
        """Every network copy, up to date with the kernel."""
        self.kernel.sync()
        return self._networks

    @property
    def network(self) -> MultistageNetwork:
        """The first network copy (the whole network when copies == 1)."""
        return self.networks[0]

    @property
    def mnis(self) -> list[MNI]:
        """The memory-network interfaces, up to date with the kernel."""
        self.kernel.sync()
        return self._mnis

    def fail_network_copy(self, index: int) -> None:
        """Take one network copy out of service (fail-stop).

        Models the reliability benefit section 4.1 attributes to
        multiple copies ("enhancing network reliability"): subsequent
        traffic stripes over the surviving copies; correctness is
        unaffected, only bandwidth degrades.  The copy must be drained
        (maintenance-style failover) — failing a copy with messages in
        flight would lose them, which fail-stop hardware would turn into
        timeouts and retries this model does not simulate.
        """
        if index not in self._healthy_copies:
            raise ValueError(f"network copy {index} is not in service")
        if len(self._healthy_copies) == 1:
            raise ValueError("cannot fail the last network copy")
        if not self.networks[index].is_drained():
            raise RuntimeError(
                f"network copy {index} still has traffic in flight; "
                "drain before failing it"
            )
        self._healthy_copies.remove(index)

    def _copy_for_request(self, message: Message) -> MultistageNetwork:
        """Stripe new requests over the healthy copies; remember the
        choice so the reply returns on the same copy (its switches hold
        the amalgam digits and wait-buffer records)."""
        index = self._healthy_copies[message.tag % len(self._healthy_copies)]
        self._copy_by_tag[message.tag] = index
        return self._networks[index]

    # ------------------------------------------------------------------
    # wiring callbacks
    # ------------------------------------------------------------------
    def _mm_sink(self, mm: int, message: Message) -> bool:
        return self._mnis[mm].offer_inbound(message, self.cycle)

    def _pe_sink(self, pe: int, message: Message) -> bool:
        accepted = self.pnis[pe].deliver_reply(message, self.cycle)
        if accepted:
            self._copy_by_tag.pop(message.tag, None)
        return accepted

    def _inject_request(self, pe: int, message: Message) -> bool:
        # A refused injection retries next cycle on the same copy (the
        # assignment is recorded on first attempt).
        index = self._copy_by_tag.get(message.tag)
        if index is None:
            network = self._copy_for_request(message)
        else:
            network = self._networks[index]
        return network.offer_request(pe, message)

    def _inject_reply(self, mm: int, message: Message) -> bool:
        return self._networks[self._copy_by_tag[message.tag]].offer_reply(
            mm, message
        )

    # ------------------------------------------------------------------
    # program interface (mirrors the paracomputer API)
    # ------------------------------------------------------------------
    def spawn(self, program_fn: ProgramFactory, *args: Any, **kwargs: Any) -> int:
        return self.programs.spawn(program_fn, *args, **kwargs)

    def spawn_many(
        self, n: int, program_fn: ProgramFactory, *args: Any, **kwargs: Any
    ) -> list[int]:
        return self.programs.spawn_many(n, program_fn, *args, **kwargs)

    def attach_driver(self, driver: Driver) -> None:
        self.drivers.append(driver)

    # ------------------------------------------------------------------
    # shared-memory access from outside the simulation (tests/examples)
    # ------------------------------------------------------------------
    def peek(self, address: int) -> int:
        module, offset = self.translation.translate(address)
        return self.memory[module].peek(offset)

    def poke(self, address: int, value: int) -> None:
        module, offset = self.translation.translate(address)
        self.memory[module].poke(offset, value)

    def dump_region(self, base: int, length: int) -> list[int]:
        return [self.peek(base + i) for i in range(length)]

    # ------------------------------------------------------------------
    # cycle loop (delegated to the configured kernel; see
    # repro.core.scheduler for the dense/batch split)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one cycle under the configured kernel.

        Every kernel produces identical per-cycle state; each visits
        only the components that can act.  (Single-cycle stepping never
        fast-forwards — use :meth:`run` or :meth:`run_cycles` for that.)
        """
        self.kernel.step()

    def quiescent(self) -> bool:
        """No traffic anywhere and every driver is done."""
        self.kernel.sync()
        return (
            all(driver.done() for driver in self.drivers)
            and all(network.is_drained() for network in self._networks)
            and all(mni.pending == 0 for mni in self._mnis)
            and all(not pni.outbound and pni.outstanding() == 0 for pni in self.pnis)
        )

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run until all programs finish and the network drains."""
        return self.kernel.run(max_cycles)

    def run_cycles(self, n: int) -> RunResult:
        """Run exactly ``n`` cycles (open-loop traffic studies)."""
        return self.kernel.run_cycles(n)

    def stats(self) -> RunResult:
        # Everything read here is current under every kernel except the
        # switch counters, which the kernel totals without writing its
        # object view back.
        self.programs.sync()
        combines, decombines = self.kernel.combine_totals()
        instr = self.instrumentation
        return RunResult(
            cycles=self.cycle,
            requests_issued=sum(p.requests_issued for p in self.pnis),
            replies_received=sum(p.replies_received for p in self.pnis),
            mean_round_trip=(
                sum(p.total_round_trip for p in self.pnis)
                / max(1, sum(p.replies_received for p in self.pnis))
            ),
            combines=combines,
            decombines=decombines,
            memory_accesses=sum(m.accesses for m in self.memory.modules),
            idle_cycles=self.programs.total_idle_cycles,
            compute_cycles=self.programs.total_compute_cycles,
            per_pe={
                pe.pe_id: PEResult(
                    pe_id=pe.pe_id,
                    ops_issued=pe.ops_issued,
                    compute_cycles=pe.compute_cycles,
                    idle_cycles=pe.idle_cycles,
                    finished_cycle=pe.finished_cycle,
                    return_value=pe.return_value,
                )
                for pe in self.programs.pes
            },
            metrics=instr.snapshot(),
            trace=instr.trace.events() if instr.trace is not None else None,
            trace_dropped=instr.trace.dropped if instr.trace is not None else 0,
        )
