"""The batch kernel: struct-of-arrays message plane for 1024–4096 PEs.

The paper's design point is a 4096-PE machine behind a 12-stage Omega
network — roughly 25k switches, 100k queues.  The dense kernel visits
only the awake ones, but still pays per-object Python costs for each of
them and does not reach that scale.  This kernel gets there by owning
every message resident in the network in numpy arrays and moving a
whole stage of them per vectorized step:

* **Message plane.**  Each network copy is a :class:`_MessagePlane`.
  Every (direction, stage) is a :class:`_Lane`: a ring of message ids
  per (switch, port) queue plus its length, used packets, and
  output-link ``busy_until``.  Each message id stores its packets, a
  key of its ``(mm, offset)`` cell, its amalgam digits and its latest
  forward enqueue cycle, from which every accepted forward offer (append
  or combine, vectorized or not) adds the sending stage's delay to the
  network's stage-delay counters.  ``Message``
  objects are made only where a PNI issues a request and on the
  per-message combining path; a reply reaches its PNI as a tag and a
  value.
* **The PE boundary without per-request lists.**  A PNI issues a
  request with its topology's interned route tuple, and the plane
  copies no digit list: a batch of requests admitted at stage 0 writes
  the tuples' digits straight into its digit array and streams the
  other fields in, making no row per request.  On the way out, each
  reply of an exit batch goes through ``PNI.deliver``, the delivery
  rule's one definition, and the exits release their ids and forget
  the tags' network copies without a Python statement per id.
* **Wiring from the topology.**  Each lane's per-queue tables (target
  kind, next switch and port, endpoint line) come from the targets
  :class:`~repro.network.multistage.MultistageNetwork` resolved at
  build, and injections go through the topology's ``inject_point`` and
  ``reply_entry``, so every registered fabric runs here.  A stage whose
  queues both eject and hop (hypercube, mesh) sends its endpoint-bound
  heads and its hopping heads as two groups.
* **One pass per direction.**  The transmit mask ``qlen != 0 & busy <=
  cycle`` finds every sending port of a direction at once, and the
  per-queue arrays of a direction are rows of ``(stages, queues)``
  arrays (:class:`_Grid`).  When no offer of the step can combine,
  decombine or be refused, every stage's heads move in one vectorized
  pass: their targets come from the stacked wiring tables and digits,
  and pops, pushes, link occupancy, digits, enqueue cycles and the
  routed and stage-delay counters are committed by scatter over (stage,
  queue).  The hazard tests are conservative — a forward offer whose
  target queue holds a same-cell resident that is not sure to leave
  first, or that follows an offer to that queue with the same cell; a
  reply with a wait record at its target stage; a target queue whose
  ``used`` before any pop plus all its incoming packets exceeds the
  capacity — so a pass is taken only where the stage-ordered walk would
  append every offer, and a push lands at ``head + len + rank``, the
  same slot whether or not its queue popped first.  Exits go to their
  endpoints stage by stage in the dense order.  Any other step, and
  every step of an instrumented run, walks the stages in the dense
  order: a stage's heads are gathered and offered, and offers to one
  target queue are settled in row-major (switch, port) order — the
  dense kernel's nested sweep — so who wins the last slot of a filling
  queue is preserved bit for bit.  Phase 3 offers every ready PNI head
  to stage 0 the same way, in ascending-PE order, for every driver.
* **Vectorized combining and decombining.**  The wait records live in
  the plane: a record is R-new's message id, kept alive as the frozen
  payload, with its key tag, location, datum and creation cycle, and
  each message id links per stage to its most recent record (earlier
  ones chain behind it).  Offers are taken one rank at a time (rank =
  position among this step's offers to a queue), so a head meets every
  earlier-rank head as a queue resident.  A head whose first uncombined
  same-cell resident is a homogeneous F&A/Load/Store partner combines
  by array operations: the operand is scatter-added, the record
  appended, and the partner's ``op`` is written back lazily.  On the
  way back a reply whose tag has such a record at its target stage
  decombines in one vectorized commit — Y for R-old, Y+e (or Y, or an
  acknowledgement) for R-new, all or nothing against the target
  switch's ToPE capacity — and R-new's reply ``Message`` is built only
  when it exits to its PNI.  This covers the paper's pairwise switch
  (``pairwise_only``) without instrumentation and with operands and
  values that stay exact in int64 (:data:`_EXACT`).  Mixed kinds, other
  phis, instrumented runs, the unlimited-combining ablation and stage
  steps with few senders take the per-message path: the same
  ``try_combine`` plans, ``ReplyRule.materialize`` and
  ``Message.make_reply`` the switches use, against the same record
  store.  ``decombine_fits`` is the combine-refusal rule on both paths.
* **The memory side on arrays.**  The MNIs are :class:`_MemorySide`:
  per memory module an inbound ring (with ready cycles and packets,
  checked against ``mni_inbound_capacity_packets``), the request in
  service and its done cycle, an outbound ring and its link's
  ``busy_until``, shared by the network copies as (copy, id) pairs.  A
  request keeps its plane id at the memory side and turns into its
  reply in place, so its wait-record links stay on the id.  Phase 1
  finds the modules that complete or start a service by array masks
  and calls ``MemoryModule.apply`` only for the completions, in
  ascending-MM order; phase 5 offers every free-link head reply as one
  batch per copy, as phase 3 does for the PNIs.  While fewer than
  ``vector_min`` MNIs hold work, both visit those MNIs one at a time.
* **Object view, synced when read.**  The switch and MNI objects remain
  the reference model for the dense kernel.  Under this
  kernel the arrays are authoritative and :meth:`BatchKernel.sync`
  writes them back — queue contents, combined requests'
  ``op``/``combine_depth``, port state, wait buffers, switch counters
  and MNIs, for what was touched since the previous write only — when a
  cycle has run since then and one of the machine's public readers
  (``networks``, ``network``, ``mnis``, ``quiescent()``) looks.
  ``step()`` itself writes nothing back; the kernel reads the machine's
  private lists.  ``stats()`` writes nothing back either: it reads the
  combine and decombine totals as the switch counters plus the planes'
  pending deltas.
* **Active-set endpoints.**  PNIs are visited only while they hold
  requests: ``PNI.issue`` adds its PE to a set the machine shares with
  the kernel, whatever driver issued, and phase 3 removes each PNI it
  drains.  The PEs are the machine's one
  :class:`~repro.core.machine.ProgramDriver`, as on every kernel: it
  visits only the PEs that act in a cycle and learns of replies from
  the set every PNI joins on delivery.
* **Quiet-cycle fast-forward.**  ``run`` and ``run_cycles`` are the
  dense kernel's: when no component can act now, jump to the earliest
  future event and apply the skipped cycles' counters in closed form.
  This kernel supplies only the hooks, read from the arrays: its
  quiescence test, its event horizon (planes and memory side first, the
  drivers' probes last) and its share of the skip.
* **End-of-run check from the arrays.**  :meth:`BatchKernel.run` ends
  when the planes are empty, no MNI or PNI holds work and every driver
  is done, which is exactly ``machine.quiescent()`` (see
  :meth:`BatchKernel._quiescent`); it does not write the object view
  back or walk the switches to find out.

The contract is the registry-wide one (see :mod:`repro.core.scheduler`):
``RunResult.to_dict()`` — including per-PE stats, instrumentation
snapshot, and the cycle trace — must be bit-identical to the dense
kernel for any workload; ``tests/integration/test_kernel_equivalence.py``
sweeps the differential grid over all three kernels and
``tests/integration/test_batch_fuzz.py`` fuzzes the machine knobs on
every fabric.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..network.message import Message, packets_for
from ..network.switch import decombine_fits
from ..network.systolic_queue import _Slot
from ..network.wait_buffer import WaitRecord
from .combining import Combined, try_combine
from .memory_ops import PACKETS_WITH_DATA, PACKETS_WITHOUT_DATA, FetchAdd, Load, Store
from .scheduler import DenseKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.multistage import MultistageNetwork
    from .machine import Ultracomputer
    from .results import RunResult

__all__ = ["BatchKernel"]

#: run an iterator to its end (each ``map`` below applies a method per
#: element without a Python statement per element)
_consume = deque(maxlen=0).extend

#: ring slots per queue before the first growth (a lane's rings double
#: whenever one of its queues outgrows them)
_RING_START = 4

#: where a queue's output leads: a switch of the next stage in the
#: direction of travel, an endpoint (MNI or PNI), or nowhere
_HOP, _END, _UNUSED = range(3)

#: request kinds the vectorized combining path handles (0: none of them)
_FA, _LOAD, _STORE = 1, 2, 3

#: operands and values below this magnitude stay exact in int64 through
#: the one addition a combine (e + f) or a decombine (Y + e) makes
_EXACT = 1 << 62

#: per-id arrays of a plane's message pool: (name, dtype, fill)
_POOL = (
    ("pk", np.int64, 0), ("key", np.int64, 0), ("comb", bool, 0),
    ("tag", np.int64, 0), ("depth", np.int64, 0),
    # vectorized combining: kind and operand of a request; ``stale``
    # marks a combined request whose op is not yet written back to its
    # Message
    ("vk", np.int8, 0), ("opnd", np.int64, 0), ("stale", bool, 0),
    # replies: the value when it is exact in int64 (``vst`` 1), None
    # (``vst`` 0) or only in the Message (``vst`` 2); ``lazy`` marks a
    # decombined reply whose Message is not built yet
    ("val", np.int64, 0), ("vst", np.int8, 0), ("lazy", bool, 0),
    # wait records (the id is R-new's): flat wait-buffer index (-1: no
    # record), the next older record with the same key and location,
    # insertion order, creation cycle, datum (R-old's operand), key tag
    # and the vectorized kind (0: the plan object is in ``w_plan``)
    ("w_at", np.int32, -1), ("w_prev", np.int32, -1), ("w_seq", np.int64, 0),
    ("w_made", np.int64, 0), ("w_dat", np.int64, 0), ("w_tag", np.int64, 0),
    ("w_kind", np.int8, 0),
    # a request at its memory module (and its reply there): the flat
    # wait-buffer index ``stage * Q + queue`` of the queue it left the
    # grid by, which is where its reply re-enters
    ("ent", np.int32, 0),
    # a request's latest forward enqueue cycle (``Message.enqueued_cycle``)
    ("enq", np.int32, 0),
)


def _cell_key(message: "Message") -> int:
    """The key a message's cell is searched by: exact (``mm``, then a
    32-bit ``offset``) when the offset fits, else a hash — equal cells
    always share a key, and a collision only costs a closer look."""
    offset = message.offset
    if type(offset) is int and 0 <= offset < 1 << 32:
        return message.mm << 32 | offset
    return hash((message.mm, offset))


def _request_fields(message: "Message") -> tuple[int, int, int]:
    """``(key, kind, operand)`` of a request: its :func:`_cell_key`, and
    its kind and operand for the vectorized combining path — kind 0
    (per-message path only) unless it is a plain F&A, Load or Store
    whose operand and offset fit the arrays (so requests of one kind
    with equal keys address one cell)."""
    offset = message.offset
    if type(offset) is not int or not 0 <= offset < 1 << 32:
        return hash((message.mm, offset)), 0, 0
    key = message.mm << 32 | offset
    op = message.op
    cls = type(op)
    if cls is FetchAdd:
        kind, operand = _FA, op.increment
    elif cls is Load:
        return key, _LOAD, 0
    elif cls is Store:
        kind, operand = _STORE, op.value
    else:
        return key, 0, 0
    if type(operand) is not int or not -_EXACT < operand < _EXACT:
        return key, 0, 0
    return key, kind, operand


def _op_of(kind: int, address: int, operand: int):
    """The op of a vectorized kind with ``operand``."""
    if kind == _FA:
        return FetchAdd(address, operand)
    if kind == _LOAD:
        return Load(address)
    return Store(address, operand)


def _runs(values: Any) -> Any:
    """Which entries of the sorted array ``values`` start a run of
    equal entries."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _run_bounds(first: Any) -> tuple[Any, Any]:
    """The start and length of each run marked by ``first`` (see
    :func:`_runs`)."""
    starts = np.flatnonzero(first)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = first.size - starts[-1:]
    return starts, lengths


class _Wiring:
    """Where the queues of a lane lead (queue ``f = switch * k + port``),
    from the targets the network resolved at build.

    ``kinds[f]`` is the target kind (``kind`` is that kind when every
    queue shares it, else None); ``to[f]`` is the next-stage switch of a
    hop or the endpoint line of an exit, and ``port[f]`` the hop's input
    port.  The ``*_l`` lists serve the one-message-at-a-time paths.
    """

    __slots__ = ("kind", "kinds", "to", "port", "to_l", "port_l")

    def __init__(self, targets: list) -> None:
        kinds = [_UNUSED if t is None else _HOP if t[0] == "switch" else _END
                 for t in targets]
        self.kind = kinds[0] if len(set(kinds)) == 1 else None
        ends = [t[1] for t, kind in zip(targets, kinds) if kind == _END]
        # so a stage step's endpoint offers have distinct receivers
        assert len(set(ends)) == len(ends), "two queues lead to one endpoint"
        self.kinds = np.array(kinds, dtype=np.int8)
        self.to_l = [0 if t is None else t[1] for t in targets]
        self.port_l = [t[2] if kind == _HOP else 0
                       for t, kind in zip(targets, kinds)]
        self.to = np.array(self.to_l, dtype=np.int64)
        self.port = np.array(self.port_l, dtype=np.int64)


class _Grid:
    """One direction of a network copy, as arrays: row ``s`` of each
    per-queue array is stage ``s``'s lane (see :class:`_Lane`).

    ``len``/``used``/``busy``/``peak``/``head``/``ins``/``combs``/
    ``base`` are ``(stages, queues)``, the switch counters ``routed``/
    ``merged``/``blocked`` ``(stages, switches)``, and ``ring`` holds
    every queue's message ids, ``(stages, queues, slots)``: the rings
    of a direction grow together.  ``kinds``/``to``/``port`` stack the
    lanes' wiring tables, and ``tot`` counts the messages resident in
    the direction.  One mask over ``len`` and ``busy`` finds the
    senders of every stage, and the one-pass step commits them by
    scatter over (stage, queue).
    """

    __slots__ = (
        "forward", "lanes", "len", "used", "busy", "peak", "head", "ins",
        "combs", "base", "routed", "merged", "blocked", "ring", "slots",
        "kinds", "to", "port", "tot",
    )

    def __init__(self, forward: bool, rows: list, wires: list) -> None:
        stages, switches = len(rows), len(rows[0])
        shape = (stages, wires[0].kinds.size)
        self.forward = forward
        for name in ("len", "used", "peak", "head", "ins", "combs", "base"):
            setattr(self, name, np.zeros(shape, dtype=np.int32))
        self.busy = np.zeros(shape, dtype=np.int64)
        for name in ("routed", "merged", "blocked"):
            setattr(self, name, np.zeros((stages, switches), dtype=np.int64))
        self.slots = _RING_START
        self.ring = np.zeros(shape + (_RING_START,), dtype=np.int32)
        self.kinds = np.stack([wire.kinds for wire in wires])
        self.to = np.stack([wire.to for wire in wires])
        self.port = np.stack([wire.port for wire in wires])
        self.tot = 0
        self.lanes = [_Lane(self, s, row, wire)
                      for s, (row, wire) in enumerate(zip(rows, wires))]

    def residents(self, q: Any) -> tuple[Any, Any]:
        """Ring rows of the flat queues ``q`` (``stage * queues +
        queue``) from their heads, oldest first, as wide as the longest
        (at least one slot), and which slots hold a message."""
        slots = self.slots
        held = self.len.reshape(-1)[q]
        pos = np.arange(max(1, int(held.max(initial=0))))
        rows = self.ring.reshape(-1, slots)[
            q[:, None], (self.head.reshape(-1)[q][:, None] + pos) % slots]
        return rows, pos < held[:, None]

    def set_ring(self, ring: Any) -> None:
        """Make ``ring`` the direction's rings, every lane's row included."""
        self.ring = ring
        self.slots = ring.shape[2]
        for lane in self.lanes:
            lane.ring = ring[lane.stage]
            lane.slots = self.slots

    def grow(self) -> None:
        """Double every ring, unrolling each queue to start at slot 0."""
        slots = self.slots
        order = (self.head[..., None] + np.arange(slots)) % slots
        ring = np.zeros(self.ring.shape[:2] + (2 * slots,), dtype=np.int32)
        ring[..., :slots] = np.take_along_axis(self.ring, order, axis=2)
        self.head[:] = 0
        self.set_ring(ring)


class _Lane:
    """One (direction, stage) of a network copy: row ``stage`` of its
    :class:`_Grid`'s arrays.

    Queue ``f = switch * k + port`` (``k`` ports per switch) is the ToMM
    queue of that port for a forward lane and the ToPE queue for a
    return lane; ``wire`` says where its output leads.  ``ring[f]``
    holds its message ids, oldest at ``head[f]``; ``len``/``used``/
    ``busy``/``peak`` mirror the queue's length, used packets, output
    link ``busy_until`` and peak packets.  ``ins``/``combs``/
    ``routed``/``merged``/``blocked`` accumulate counter deltas
    (``merged`` counts a forward lane's combines and a return lane's
    decombines) and ``base`` is each queue's length at the last flush,
    so ``base + ins - len`` messages were sent since; a queue changed
    since the last flush is one that inserted, combined or sent.
    """

    __slots__ = (
        "grid", "stage", "at", "forward", "switches", "queues", "ports", "hist",
        "len", "used", "busy", "peak", "head", "ring", "slots", "ins", "combs",
        "base", "routed", "merged", "blocked", "wire",
    )

    def __init__(self, grid: _Grid, stage: int, switches: list,
                 wire: _Wiring) -> None:
        self.grid = grid
        self.stage = stage
        self.at = stage * grid.len.shape[1]  # flat index of queue 0
        self.forward = grid.forward
        self.switches = switches
        self.queues = [q for sw in switches
                       for q in (sw.to_mm if grid.forward else sw.to_pe)]
        self.ports = [p for sw in switches
                      for p in (sw.mm_ports if grid.forward else sw.pe_ports)]
        self.hist = self.queues[0]._occupancy_histogram
        for name in ("len", "used", "busy", "peak", "head", "ins", "combs",
                     "base", "routed", "merged", "blocked"):
            setattr(self, name, getattr(grid, name)[stage])
        self.ring = grid.ring[stage]
        self.slots = grid.slots
        self.wire = wire

    def contents(self, queues: Any) -> tuple[Any, Any]:
        """Message ids of ``queues``, queue by queue and oldest first,
        with each queue's length."""
        rows, live = self.residents(queues)
        return rows[live], self.len[queues]

    def residents(self, q: Any) -> tuple[Any, Any]:
        """:meth:`_Grid.residents` of this lane's queues ``q``."""
        return self.grid.residents(self.at + q)

    def push_many(self, q: Any, ids: Any, packets: Any) -> None:
        """Append ``ids`` to the distinct queues ``q`` (no capacity check)."""
        while int(self.len[q].max()) >= self.slots:
            self.grid.grow()
        held = self.len[q]
        self.ring[q, (self.head[q] + held) % self.slots] = ids
        self.len[q] = held + 1
        used = self.used[q] + packets
        self.used[q] = used
        self.peak[q] = np.maximum(self.peak[q], used)
        self.ins[q] += 1
        self.grid.tot += q.size


class _MessagePlane:
    """Every message resident in one network copy, in struct-of-arrays
    form, moved a direction per pass (see the module docstring)."""

    #: a stage step, injection or memory-side phase with fewer heads
    #: (or MNIs) than this moves them one at a time, and a direction
    #: step with fewer senders walks the stages: below it the
    #: vectorized step's fixed cost is the larger
    vector_min = 32

    def __init__(self, network: "MultistageNetwork", kernel: "BatchKernel",
                 copy: int) -> None:
        self.network = network
        self.kernel = kernel
        self.copy = copy
        self.memory = kernel._memory
        topo = self.topo = network.topology
        config = network.config
        k = self.k = topo.switch_arity
        self.D = topo.stages
        self.S = topo.switches_per_stage
        self.Q = self.S * k
        self.cap = config.queue_capacity_packets
        self.wcap = config.wait_buffer_capacity
        self.pairwise = config.pairwise_only
        self.combining = config.combining and config.wait_buffer_capacity != 0
        # the network's stage-delay counters, kept current by every offer
        self.delay_sum = network.stage_delay_sum
        self.delay_count = network.stage_delay_count
        instr = network.instrumentation
        self._instr = instr
        self._instr_on = instr.enabled
        #: whether combining and decombining may take the vectorized path
        self.vector = self.combining and self.pairwise and not instr.enabled
        wires: dict[int, _Wiring] = {}  # stages wired alike share a list
        for targets in network.forward_targets + network.return_targets:
            if id(targets) not in wires:
                wires[id(targets)] = _Wiring(targets)
        self.fwd_grid, self.ret_grid = (
            _Grid(forward, network.stages,
                  [wires[id(targets)] for targets in lists])
            for forward, lists in ((True, network.forward_targets),
                                   (False, network.return_targets)))
        self.fwd = self.fwd_grid.lanes
        self.ret = self.ret_grid.lanes
        points = [topo.inject_point(pe) for pe in range(topo.n_ports)]
        self.inject_points = points
        self.inject_sw = np.array([p[0] for p in points], dtype=np.int64)
        self.inject_port = np.array([p[1] for p in points], dtype=np.int64)
        # Wait buffers, flat index ``stage * Q + switch * k + port``.
        self.wbs = [wb for row in network.stages for sw in row
                    for wb in sw.wait_buffers]
        # Whether a homogeneous pair of each vectorized kind may combine
        # (indexed [kind, R-old and R-new arrived on the same port]):
        # decombine_fits evaluated once per case.
        self.fits = np.ones((4, 2), dtype=bool)
        for kind in (_FA, _LOAD, _STORE):
            op = _op_of(kind, 0, 1)
            plan = try_combine(op, op)
            for same in (0, 1):
                self.fits[kind, same] = decombine_fits(
                    self.cap, 0, 0, (), 1 - same, plan)

    # ------------------------------------------------------------------
    # message ids
    # ------------------------------------------------------------------
    def _new_pool(self, size: int) -> None:
        self.obj: list[Optional["Message"]] = [None] * size
        self.w_plan: list[Optional[Combined]] = [None] * size
        for name, dtype, fill in _POOL:
            setattr(self, name, np.full(size, fill, dtype=dtype))
        self.dig = np.zeros((size, self.D), dtype=np.int32)
        # link[i, s]: the most recent wait record keyed by i's tag at
        # stage s (-1: none)
        self.link = np.full((size, self.D), -1, dtype=np.int32)
        self._free = list(range(size - 1, -1, -1))

    def _grow_pool(self) -> None:
        size = len(self.obj)
        self.obj.extend([None] * size)
        self.w_plan.extend([None] * size)
        for name, dtype, fill in _POOL + (("dig", np.int32, 0),
                                          ("link", np.int32, -1)):
            old = getattr(self, name)
            new = np.full((2 * size,) + old.shape[1:], fill, dtype=dtype)
            new[:size] = old
            setattr(self, name, new)
        self._free.extend(range(2 * size - 1, size - 1, -1))

    def _admit(self, message: "Message", combined: bool = False) -> int:
        """Give ``message`` an id (its entry into the plane).  A free id
        has no links and is neither stale nor lazy (see
        :meth:`_exit_replies`)."""
        if not self._free:
            self._grow_pool()
        i = self._free.pop()
        self.obj[i] = message
        self.pk[i] = message.packets
        self.dig[i] = message.digits
        self.tag[i] = message.tag
        self.comb[i] = combined
        if message.is_reply:
            self.key[i] = _cell_key(message)
            self._note_value(i, message.value)
        else:
            self.key[i], self.vk[i], self.opnd[i] = _request_fields(message)
            self.depth[i] = message.combine_depth
            self.enq[i] = message.enqueued_cycle
        return i

    def _admit_many(self, messages: list["Message"]) -> Any:
        """:meth:`_admit` for a batch of requests, one array write per
        field.  Their digits are read from the interned route tuples
        they were issued with; no digit list is made.  The fields are
        streamed into their arrays, so no tracked object per request
        outlives its own conversion (a batch of thousands of live row
        tuples would set off young collections, and those promote the
        requests in flight toward full ones)."""
        n = len(messages)
        while len(self._free) < n:
            self._grow_pool()
        ids_l = self._free[-n:]
        del self._free[-n:]
        obj = self.obj
        for i, message in zip(ids_l, messages):
            obj[i] = message
        ids = np.array(ids_l, dtype=np.int64)
        self.pk[ids] = [m.packets for m in messages]
        self.tag[ids] = [m.tag for m in messages]
        self.depth[ids] = [m.combine_depth for m in messages]
        fields = np.fromiter(
            itertools.chain.from_iterable(map(_request_fields, messages)),
            dtype=np.int64, count=3 * n).reshape(n, 3)
        self.key[ids], self.vk[ids], self.opnd[ids] = fields.T
        self.dig[ids] = [m.digits for m in messages]
        self.comb[ids] = False
        return ids

    def _release(self, i: int) -> None:
        self.obj[i] = None
        self._free.append(i)

    def _note_value(self, i: int, value: Optional[int]) -> None:
        if value is None:
            self.vst[i] = 0
        elif type(value) is int and -_EXACT < value < _EXACT:
            self.vst[i] = 1
            self.val[i] = value
        else:
            self.vst[i] = 2

    def _sync(self, i: int) -> None:
        """Write a vectorized combine's op and depth back to the Message."""
        if self.stale.item(i):
            message = self.obj[i]
            message.replace_op(_op_of(self.vk.item(i), message.op.address,
                                      self.opnd.item(i)))
            message.combine_depth = self.depth.item(i)
            self.stale[i] = False

    def _request(self, i: int) -> "Message":
        """The request Message of id ``i``, its op and digits written
        back."""
        self._sync(i)
        message = self.obj[i]
        message.digits = self.dig[i].tolist()
        return message

    def _reply(self, i: int) -> "Message":
        """The reply Message of id ``i``, built now if it is lazy."""
        if self.lazy.item(i):
            self._build_replies(np.array([i]))
        return self.obj[i]

    def _turn_one(self, i: int, value: Optional[int]) -> None:
        """:meth:`_turn` for one request."""
        self._note_value(i, value)
        self.pk[i] = PACKETS_WITHOUT_DATA if value is None else PACKETS_WITH_DATA
        self.comb[i] = False
        if self.vst.item(i) == 2:
            self.obj[i] = self._request(i).make_reply(value)
        else:
            self.lazy[i] = True

    def _turn(self, ids: Any, values: list[Optional[int]]) -> None:
        """Turn the requests ``ids``, served at their memory modules,
        into their replies carrying ``values``, keeping each id (and so
        its wait-record links).  A reply whose value is exact in int64
        or None stays lazy; any other is built now by ``make_reply``."""
        status = [0 if v is None else 1 if type(v) is int and -_EXACT < v < _EXACT
                  else 2 for v in values]
        vst = np.array(status, dtype=np.int8)
        self.vst[ids] = vst
        self.val[ids] = [v if st == 1 else 0 for v, st in zip(values, status)]
        self.pk[ids] = np.where(vst == 0, PACKETS_WITHOUT_DATA, PACKETS_WITH_DATA)
        self.comb[ids] = False  # a return queue's slots are never combined
        eager = vst == 2
        self.lazy[ids] = ~eager
        if eager.any():
            for i, value in zip(ids[eager].tolist(),
                                (v for v, st in zip(values, status) if st == 2)):
                self.obj[i] = self._request(i).make_reply(value)

    def _build_replies(self, ids: Any) -> None:
        """Build the reply Messages of the lazy ids ``ids``: what
        ``make_reply`` makes of R-new's request (still in ``obj``, frozen
        at its combine) with the decombined value."""
        obj = self.obj
        values = np.where(self.vst[ids] == 1, self.val[ids], 0).tolist()
        for i, value, exact, stale, kind, operand, depth, digits in zip(
            ids.tolist(), values, (self.vst[ids] == 1).tolist(),
            self.stale[ids].tolist(), self.vk[ids].tolist(),
            self.opnd[ids].tolist(), self.depth[ids].tolist(),
            self.dig[ids].tolist(),
        ):
            request = obj[i]
            op = request.op
            obj[i] = Message(
                op=_op_of(kind, op.address, operand) if stale else op,
                mm=request.mm, offset=request.offset, origin=request.origin,
                tag=request.tag, digits=digits, is_reply=True,
                value=value if exact else None, combine_depth=depth,
                issued_cycle=request.issued_cycle,
            )
        self.lazy[ids] = False
        self.stale[ids] = False

    # ------------------------------------------------------------------
    # the wait-record store
    # ------------------------------------------------------------------
    def _chain(self, j: int, stage: int) -> list[int]:
        """Records keyed by id ``j``'s tag at ``stage``, most recent first."""
        chain = []
        r = self.link.item(j, stage)
        while r >= 0:
            chain.append(r)
            r = self.w_prev.item(r)
        return chain

    def _plan(self, r: int) -> Combined:
        kind = self.w_kind.item(r)
        if not kind:
            return self.w_plan[r]
        self._sync(r)
        new = self.obj[r].op
        return try_combine(_op_of(kind, new.address, self.w_dat.item(r)), new)

    def _wait_record(self, r: int) -> WaitRecord:
        """The object view of record ``r``."""
        self._sync(r)
        message = self.obj[r]
        message.digits = self.dig[r].tolist()
        return WaitRecord(key_tag=self.w_tag.item(r), plan=self._plan(r),
                          new_message=message,
                          stage=self.w_at.item(r) // self.Q,
                          created_cycle=self.w_made.item(r))

    def _insert_record(self, i: int, j: int, stage: int, wb: int, cycle: int,
                       plan: Combined) -> None:
        """Record R-new ``i`` absorbed into R-old ``j`` (per-message path)."""
        self.w_at[i] = wb
        self.w_prev[i] = self.link.item(j, stage)
        self.link[j, stage] = i
        self.w_tag[i] = self.tag.item(j)
        self.w_made[i] = cycle
        self.w_kind[i] = 0
        self.w_plan[i] = plan
        self.w_seq[i] = self._seq
        self._seq += 1
        occupancy = self.wb_occ.item(wb) + 1
        self.wb_occ[wb] = occupancy
        if occupancy > self.wb_peak.item(wb):
            self.wb_peak[wb] = occupancy
        self.wb_ins[wb] = self.wb_ins.item(wb) + 1
        self.wb_dirty[wb] = True
        hist = self.wbs[wb]._occupancy_histogram
        if hist is not None:
            hist.observe(occupancy)

    # ------------------------------------------------------------------
    # object view
    # ------------------------------------------------------------------
    def resync(self, memory_side: list["Message"]) -> list[int]:
        """Rebuild the whole plane from the switch objects and
        ``memory_side``, the messages of this copy the MNI objects hold;
        returns the ids given to those, in order.

        Used at construction (the objects may already hold traffic) and
        by the round-trip tests, which compare a flushed plane against
        one rebuilt from its own object view (see
        :meth:`BatchKernel.resync`)."""
        lanes = self.fwd + self.ret
        lengths = [[len(q._slots) for q in lane.queues] for lane in lanes]
        wbs = self.wbs
        self.wb_occ = np.array([wb._occupancy for wb in wbs], dtype=np.int32)
        self.wb_peak = np.array([wb.peak_occupancy for wb in wbs], dtype=np.int32)
        self.wb_ins = np.zeros(len(wbs), dtype=np.int32)
        self.wb_dirty = np.zeros(len(wbs), dtype=bool)
        self._new_pool(max(1024, 2 * (sum(map(sum, lengths)) + len(memory_side)
                                      + int(self.wb_occ.sum()))))
        self._seq = 0
        by_tag: dict[int, int] = {}
        for grid, held in ((self.fwd_grid, lengths[:self.D]),
                           (self.ret_grid, lengths[self.D:])):
            grid.set_ring(np.zeros(
                grid.len.shape + (max([grid.slots] + [max(h) for h in held]),),
                dtype=np.int32))
            grid.len[:] = held
            grid.base[:] = held
            grid.tot = sum(map(sum, held))
            for arr in (grid.head, grid.ins, grid.combs, grid.routed,
                        grid.merged, grid.blocked):
                arr[:] = 0
        for lane in lanes:
            lane.used[:] = [q.used_packets for q in lane.queues]
            lane.peak[:] = [q.peak_packets for q in lane.queues]
            lane.busy[:] = [p.busy_until for p in lane.ports]
            for f in np.flatnonzero(lane.len).tolist():
                for j, slot in enumerate(lane.queues[f]._slots):
                    i = self._admit(slot.message, slot.already_combined)
                    lane.ring[f, j] = i
                    by_tag[slot.message.tag] = i
        held_ids = []
        for message in memory_side:
            i = self._admit(message)
            stage, sw_i, port = self.topo.reply_entry(message.mm, message.origin)
            self.ent[i] = stage * self.Q + sw_i * self.k + port
            by_tag[message.tag] = i
            held_ids.append(i)
        found = []
        for wb_index in np.flatnonzero(self.wb_occ).tolist():
            for stack in wbs[wb_index]._records.values():
                for record in stack:
                    i = self._admit(record.new_message)
                    by_tag[record.new_message.tag] = i
                    found.append((wb_index, record, i))
        for wb_index, record, i in found:  # oldest first within a key
            stage = record.stage
            holder = by_tag[record.key_tag]
            self.w_prev[i] = self.link.item(holder, stage)
            self.link[holder, stage] = i
            self.w_at[i] = wb_index
            self.w_tag[i] = record.key_tag
            self.w_made[i] = record.created_cycle
            self.w_plan[i] = record.plan
            self.w_kind[i] = 0
            self.w_seq[i] = self._seq
            self._seq += 1
        return held_ids

    def export_state(self) -> dict[str, Any]:
        """Copy of the schedulable arrays (round-trip tests compare this
        against the arrays rebuilt by :meth:`resync`)."""
        shape = (self.S, self.k)
        return {
            "fwd_len": [lane.len.reshape(shape).copy() for lane in self.fwd],
            "fwd_busy": [lane.busy.reshape(shape).copy() for lane in self.fwd],
            "ret_len": [lane.len.reshape(shape).copy() for lane in self.ret],
            "ret_busy": [lane.busy.reshape(shape).copy() for lane in self.ret],
            "fwd_tot": self.fwd_grid.tot,
            "ret_tot": self.ret_grid.tot,
            "wait_occupancy": self.wb_occ.reshape(self.D, self.Q).copy(),
            "wait_peak": self.wb_peak.reshape(self.D, self.Q).copy(),
        }

    def flush(self) -> None:
        """Write the plane back into the switch objects: contents,
        packet counts and statistics of every queue touched since the
        last flush, its output port, the wait buffers touched since then,
        and the switch counters."""
        pairwise = self.pairwise
        obj = self.obj
        for lane in self.fwd + self.ret:
            # only a combining queue keeps a key index (a ToPE queue or
            # a ToMM queue of a non-combining network is never searched)
            indexed = lane.queues[0].combining
            sends = lane.base + lane.ins - lane.len
            touched = np.flatnonzero((lane.ins != 0) | (lane.combs != 0)
                                     | (sends != 0))
            if touched.size:
                ids, lengths = lane.contents(touched)
                ids_l = ids.tolist()
                combined_l = self.comb[ids].tolist()
                if lane.forward:
                    for i in ids[self.stale[ids]].tolist():
                        self._sync(i)
                    for i, digits, enqueued in zip(ids_l, self.dig[ids].tolist(),
                                                   self.enq[ids].tolist()):
                        m = obj[i]
                        m.digits = digits
                        m.enqueued_cycle = enqueued
                else:
                    lazy = ids[self.lazy[ids]]
                    if lazy.size:
                        self._build_replies(lazy)
                queues, ports = lane.queues, lane.ports
                start = 0
                for f, n, used, peak, ins, combs, busy, sent in zip(
                    touched.tolist(), lengths.tolist(),
                    lane.used[touched].tolist(), lane.peak[touched].tolist(),
                    lane.ins[touched].tolist(), lane.combs[touched].tolist(),
                    lane.busy[touched].tolist(), sends[touched].tolist(),
                ):
                    queue = queues[f]
                    if n:
                        end = start + n
                        if indexed:
                            slots = deque()
                            index: dict[tuple[int, int], list[_Slot]] = {}
                            for i, combined in zip(ids_l[start:end],
                                                   combined_l[start:end]):
                                m = obj[i]
                                slot = _Slot(m, combined)
                                slots.append(slot)
                                if not (pairwise and combined):
                                    key = (m.mm, m.offset)
                                    if key in index:
                                        index[key].append(slot)
                                    else:
                                        index[key] = [slot]
                            queue._by_key = index
                        else:
                            slots = deque([_Slot(obj[i], combined) for i, combined
                                           in zip(ids_l[start:end],
                                                  combined_l[start:end])])
                        queue._slots = slots
                        start = end
                    elif queue._slots:
                        queue._slots = deque()
                        queue._by_key = {}
                    queue.used_packets = used
                    queue.peak_packets = peak
                    if ins:
                        queue.total_inserted += ins
                    if combs:
                        queue.total_combined += combs
                    if sent:
                        port = ports[f]
                        port.busy_until = busy
                        port.messages_sent += sent
                lane.base[touched] = lane.len[touched]
                for arr in (lane.ins, lane.combs):
                    arr[touched] = 0
            for counts, field in (
                (lane.routed, "requests_routed" if lane.forward else "replies_routed"),
                (lane.merged, "combines" if lane.forward else "decombines"),
                (lane.blocked, "forward_blocked_cycles"
                 if lane.forward else "return_blocked_cycles"),
            ):
                hit = np.flatnonzero(counts)
                if hit.size:
                    switches = lane.switches
                    for i, n in zip(hit.tolist(), counts[hit].tolist()):
                        stats = switches[i].stats
                        setattr(stats, field, getattr(stats, field) + n)
                    counts[hit] = 0
        self._flush_waits()

    def _flush_waits(self) -> None:
        """Rebuild the wait buffers touched since the last flush."""
        touched = np.flatnonzero(self.wb_dirty)
        if not touched.size:
            return
        records = np.flatnonzero(np.isin(self.w_at, touched))
        records = records[np.argsort(self.w_seq[records], kind="stable")]
        held: dict[int, dict[int, list[WaitRecord]]] = {}
        for r, at in zip(records.tolist(), self.w_at[records].tolist()):
            record = self._wait_record(r)
            keyed = held.setdefault(at, {})
            if record.key_tag in keyed:
                keyed[record.key_tag].append(record)
            else:
                keyed[record.key_tag] = [record]
        for at, occupancy, peak, ins in zip(
            touched.tolist(), self.wb_occ[touched].tolist(),
            self.wb_peak[touched].tolist(), self.wb_ins[touched].tolist(),
        ):
            wb = self.wbs[at]
            wb._records = held.get(at, {})
            wb._occupancy = occupancy
            wb.peak_occupancy = peak
            wb.total_insertions += ins
        self.wb_ins[touched] = 0
        self.wb_dirty[touched] = False

    def has_messages(self) -> bool:
        return bool(self.fwd_grid.tot or self.ret_grid.tot)

    # ------------------------------------------------------------------
    # injections (PNI -> stage 0, MNI -> the reply-entry stage)
    # ------------------------------------------------------------------
    def inject_request(self, pe: int, message: "Message", cycle: int) -> bool:
        sw_i, in_port = self.inject_points[pe]
        i = self._admit(message)
        if self._offer_forward(self.fwd[0], sw_i, in_port, message.digits[0],
                               i, cycle):
            return True
        self._release(i)
        return False

    def inject_requests(self, pes: list[int], messages: list["Message"],
                        cycle: int) -> list[bool]:
        """Offer the head request of each PE in ``pes`` (ascending) to
        stage 0, as one batch unless there are only a few."""
        if len(pes) < self.vector_min:
            return [self.inject_request(pe, message, cycle)
                    for pe, message in zip(pes, messages)]
        ids = self._admit_many(messages)
        line = np.array(pes, dtype=np.int64)
        accepted = np.zeros(len(pes), dtype=bool)
        accepted[self._offer_requests(self.fwd[0], ids, self.inject_sw[line],
                                      self.inject_port[line], cycle)] = True
        for i in ids[~accepted].tolist():
            self._release(i)
        return accepted.tolist()

    def inject_reply(self, i: int, cycle: int) -> bool:
        """Offer reply ``i`` where its request left the grid."""
        stage, queue = divmod(self.ent.item(i), self.Q)
        return self._offer_return(self.ret[stage], queue // self.k,
                                  queue % self.k, self.dig.item(i, stage), i,
                                  cycle)

    def inject_replies(self, ids: Any, cycle: int) -> Any:
        """:meth:`inject_reply` for the head replies ``ids`` of their
        MNIs (in ascending-MM order); returns which were taken.  Offers
        at different stages do not interact, so each stage takes its
        replies as one batch."""
        stage, queue = np.divmod(self.ent[ids], self.Q)
        sw, port = np.divmod(queue, self.k)
        accepted = np.zeros(ids.size, dtype=bool)
        for s in np.unique(stage).tolist():
            sel = np.flatnonzero(stage == s)
            accepted[sel[self._offer_replies(self.ret[s], ids[sel], sw[sel],
                                             port[sel], cycle)]] = True
        return accepted

    # ------------------------------------------------------------------
    # one message at a time: endpoints and the per-message combining
    # path (scalar reads go through ``item``, which skips numpy's scalar
    # boxing)
    # ------------------------------------------------------------------
    def _push(self, lane: _Lane, q: int, i: int, packets: int) -> None:
        n = lane.len.item(q)
        if n == lane.slots:
            lane.grid.grow()
        lane.ring[q, (lane.head.item(q) + n) % lane.slots] = i
        lane.len[q] = n + 1
        used = lane.used.item(q) + packets
        lane.used[q] = used
        if used > lane.peak.item(q):
            lane.peak[q] = used
        lane.ins[q] = lane.ins.item(q) + 1
        lane.grid.tot += 1
        if lane.hist is not None:
            lane.hist.observe(used)

    def _pop(self, lane: _Lane, f: int, packets: int, cycle: int) -> None:
        head = lane.head.item(f) + 1
        lane.head[f] = 0 if head == lane.slots else head
        lane.len[f] = lane.len.item(f) - 1
        lane.used[f] = lane.used.item(f) - packets
        lane.busy[f] = cycle + packets
        lane.grid.tot -= 1

    def _count_delays(self, stage: int, ids: Any, cycle: int) -> None:
        """Stage ``stage - 1``'s delays of the requests ``ids``, accepted
        by ``stage`` on ``cycle`` (``MultistageNetwork.stage_delay_sum``)."""
        self.delay_sum[stage - 1] += cycle * ids.size - int(self.enq[ids].sum())
        self.delay_count[stage - 1] += ids.size

    def _offer_forward(self, lane: _Lane, sw_i: int, in_port: int, out: int,
                       i: int, cycle: int) -> bool:
        """``Switch.offer_forward`` on the plane: combine with the first
        queued partner ``try_combine`` accepts, or append if the queue
        has room; refuse otherwise."""
        q = sw_i * self.k + out
        stage = lane.stage
        wb = stage * self.Q + q
        obj = self.obj
        partner = None
        held = lane.len.item(q)
        if self.combining and held and (
                self.wcap is None or self.wb_occ.item(wb) < self.wcap):
            self._sync(i)
            message = obj[i]
            mm, offset, key = message.mm, message.offset, self.key.item(i)
            row = lane.ring[q].tolist()
            head = lane.head.item(q)
            for j in (row[head:] + row[:head])[:held]:
                if self.key.item(j) != key or (self.pairwise and self.comb.item(j)):
                    continue
                queued = obj[j]
                if queued.offset != offset or queued.mm != mm:
                    continue
                self._sync(j)
                plan = try_combine(queued.op, message.op)
                if plan is not None:
                    if decombine_fits(self.cap, stage, self.dig.item(j, stage),
                                      [self._wait_record(r) for r in
                                       reversed(self._chain(j, stage))],
                                      in_port, plan):
                        partner = (j, plan)
                    break
        packets = self.pk.item(i)
        if partner is None and self.cap is not None and (
                lane.used.item(q) + packets > self.cap):
            return False
        self.dig[i, stage] = in_port
        if stage:
            self.delay_sum[stage - 1] += cycle - self.enq.item(i)
            self.delay_count[stage - 1] += 1
        if partner is None:
            self.comb[i] = False  # a new slot, not yet combined here
            self.enq[i] = cycle
            self._push(lane, q, i, packets)
            if self._instr_on:
                message = obj[i]
                self._instr.record("enqueue", cycle, tag=message.tag,
                                   pe=message.origin, stage=stage)
        else:
            j, plan = partner
            queued = obj[j]
            before = queued.packets
            queued.replace_op(plan.forward)
            depth = max(self.depth.item(j), self.depth.item(i)) + 1
            queued.combine_depth = depth
            self.depth[j] = depth
            _, self.vk[j], self.opnd[j] = _request_fields(queued)
            self.comb[j] = True
            self.pk[j] = queued.packets
            used = lane.used.item(q) + queued.packets - before
            lane.used[q] = used
            if used > lane.peak.item(q):
                lane.peak[q] = used
            lane.combs[q] = lane.combs.item(q) + 1
            self._insert_record(i, j, stage, wb, cycle, plan)
            lane.merged[sw_i] = lane.merged.item(sw_i) + 1
            if self._instr_on:
                message = obj[i]
                lane.switches[sw_i]._combine_counter.inc()
                self._instr.record("combine", cycle, tag=message.tag,
                                   pe=message.origin, stage=stage,
                                   tag2=queued.tag)
        lane.routed[sw_i] = lane.routed.item(sw_i) + 1
        return True

    def _offer_return(self, lane: _Lane, sw_i: int, mm_port: int, out: int,
                      i: int, cycle: int) -> bool:
        """``Switch.offer_return`` on the plane: route the reply, and on
        a wait-record hit unwind the decombining stack into one reply per
        absorbed partner, all or nothing."""
        k = self.k
        stage = lane.stage
        if self.link.item(i, stage) < 0:
            packets = self.pk.item(i)
            q = sw_i * k + out
            if self.cap is not None and lane.used.item(q) + packets > self.cap:
                return False
            self._push(lane, q, i, packets)
            lane.routed[sw_i] = lane.routed.item(sw_i) + 1
            return True

        message = self._reply(i)
        chain = self._chain(i, stage)  # most recent first
        value = message.value
        partners: list[tuple[int, Optional[int]]] = []
        for r in chain:
            plan = self._plan(r)
            partners.append((r, plan.new_rule.materialize(value)))
            value = plan.old_rule.materialize(value)
        if self.cap is not None:
            needed: dict[int, int] = {}
            for r, new_value in partners:
                port = self.dig.item(r, stage)
                needed[port] = needed.get(port, 0) + packets_for(new_value is not None)
            needed[out] = needed.get(out, 0) + packets_for(value is not None)
            for port, packets in needed.items():
                if lane.used.item(sw_i * k + port) + packets > self.cap:
                    return False

        if self._instr_on:
            sw = lane.switches[sw_i]
            sw._decombine_counter.inc(len(chain))
            for r in reversed(chain):
                sw._wait_residency.observe(cycle - self.w_made.item(r))
                self._instr.record("decombine", cycle, tag=self.tag.item(r),
                                   pe=self.obj[r].origin, stage=stage,
                                   tag2=message.tag)
        self.link[i, stage] = -1
        message.set_value(value)
        self.pk[i] = message.packets
        self._note_value(i, value)
        for r, new_value in partners:
            self._sync(r)
            request = self.obj[r]
            request.digits = self.dig[r].tolist()
            reply = self.obj[r] = request.make_reply(new_value)
            self.pk[r] = reply.packets
            self._note_value(r, new_value)
            self.w_at[r] = -1
            self.w_plan[r] = None
            self._push(lane, sw_i * k + self.dig.item(r, stage), r, reply.packets)
        self._push(lane, sw_i * k + out, i, message.packets)
        wb = stage * self.Q + sw_i * k + mm_port
        self.wb_occ[wb] = self.wb_occ.item(wb) - len(chain)
        self.wb_dirty[wb] = True
        lane.merged[sw_i] = lane.merged.item(sw_i) + len(chain)
        lane.routed[sw_i] = lane.routed.item(sw_i) + 1 + len(chain)
        return True

    # ------------------------------------------------------------------
    # one hop per resident message: a direction in one pass, or a
    # stage at a time
    # ------------------------------------------------------------------
    def step_forward(self, cycle: int) -> None:
        """Move requests one hop toward memory (dense phase 2), memory
        side first so each message advances at most one stage."""
        self._step(self.fwd_grid, cycle)

    def step_return(self, cycle: int) -> None:
        """Move replies one hop toward the PEs (dense phase 4)."""
        self._step(self.ret_grid, cycle)

    def _step(self, grid: _Grid, cycle: int) -> None:
        """Send the head of every transmitting queue of a direction:
        all stages in one pass when no offer can combine, decombine or
        be refused (:meth:`_one_pass`), else a stage at a time
        (:meth:`_staged`).

        One mask serves the whole direction: a stage's queues change
        during a step only through its own pops and through pushes from
        the stage processed after it, so its senders are fixed before
        the step starts."""
        if not grid.tot:
            return
        src = np.flatnonzero((grid.len != 0) & (grid.busy <= cycle))
        if (src.size < self.vector_min or self._instr_on
                or not self._one_pass(grid, src, cycle)):
            self._staged(grid, src, cycle)

    def _staged(self, grid: _Grid, src: Any, cycle: int) -> None:
        """Send the heads of ``src`` (flat ``stage * Q + queue``,
        ascending) a stage at a time in the dense order: downstream
        stages first, queues row-major within a stage."""
        lanes = grid.lanes
        forward = grid.forward
        for stage, queues in self._by_stage(src, forward):
            nxt = stage + 1 if forward else stage - 1
            self._move(lanes[stage], lanes[nxt] if 0 <= nxt < self.D else None,
                       queues, cycle)

    def _by_stage(self, src: Any, forward: bool) -> Any:
        """``(stage, queues)`` for each stage of the flat queues ``src``
        (ascending), downstream stages first."""
        Q, D = self.Q, self.D
        bounds = np.searchsorted(src, np.arange(D + 1) * Q).tolist()
        for stage in range(D - 1, -1, -1) if forward else range(D):
            lo, hi = bounds[stage], bounds[stage + 1]
            if lo < hi:
                yield stage, src[lo:hi] - stage * Q

    def _one_pass(self, grid: _Grid, src: Any, cycle: int) -> bool:
        """Send the heads of ``src`` (as :meth:`_staged`) with every
        stage's hops settled in one vectorized pass; returns False,
        having changed nothing, when the step has a hazard.

        The staged walk's outcome differs from a plain append of every
        hop only if an offer combines, decombines or is refused, and
        each hazard test checks a superset of what that walk would see:
        a forward offer that may combine (:meth:`_flagged`); a reply
        with a wait record at its target stage; a target queue whose
        ``used`` before any pop plus every packet offered to it exceeds
        the capacity.  With none, every hop is taken.  A push lands at
        ``head + len + rank`` (``rank``: its place among the offers to
        its queue in row-major order), the same slot whether or not that
        queue popped first, and a queue's peak is its ``used`` after its
        own pop and all its pushes, as it is in the staged order.  Exits
        go to their endpoints stage by stage in the staged order (MNI
        inbound rings and PNI ``completed`` deques see arrivals in that
        order); they do not interact with the hops."""
        Q, k, D = self.Q, self.k, self.D
        forward = grid.forward
        kinds = grid.kinds.reshape(-1)[src]
        hopping = kinds == _HOP
        hops = src[hopping]
        n = hops.size
        # (stage, queue) arrays and the per-id digit rows read flat
        length, used = grid.len.reshape(-1), grid.used.reshape(-1)
        head = grid.head.reshape(-1)
        dig = self.dig.reshape(-1)
        if n:
            ids = grid.ring.reshape(-1)[hops * grid.slots + head[hops]]
            stage = hops // Q
            to = stage + 1 if forward else stage - 1
            at_digit = ids * D + to
            t_sw = grid.to.reshape(-1)[hops]
            target = to * Q + t_sw * k + dig[at_digit]
            # offers grouped by target queue, row-major within a group,
            # and each one's place in its group
            order, rank, _ = self._ranks(target)
            grouped, rank = target[order], rank[order]
            packets = self.pk[ids]
            if forward:
                if self._flagged(grid, ids, target, order, cycle) is not None:
                    return False
            elif self.combining and (self.link.reshape(-1)[at_digit] >= 0).any():
                return False
            if self.cap is not None:
                total = np.cumsum(packets[order])
                offered = total - (total - packets[order])[np.arange(n) - rank]
                if (used[grouped] + offered > self.cap).any():
                    return False
        if n < src.size:
            assert not (kinds == _UNUSED).any(), "routed out an unused port"
            for s, queues in self._by_stage(src[~hopping], forward):
                self._exit(grid.lanes[s], queues, cycle)
        if not n:
            return True
        while int((length[grouped] + rank).max()) >= grid.slots:
            grid.grow()
        slots = grid.slots
        slot = (head[grouped] + length[grouped] + rank) % slots
        # the sending side: pop, occupy the link
        head[hops] = (head[hops] + 1) % slots
        length[hops] -= 1
        used[hops] -= packets
        grid.busy.reshape(-1)[hops] = cycle + packets
        # the receiving side: push in rank order
        grid.ring.reshape(-1)[grouped * slots + slot] = ids[order]
        firsts, counts = _run_bounds(rank == 0)
        queues = grouped[firsts]
        length[queues] += counts
        used[queues] += np.add.reduceat(packets[order], firsts)
        peak = grid.peak.reshape(-1)
        peak[queues] = np.maximum(peak[queues], used[queues])
        grid.ins.reshape(-1)[queues] += counts
        np.add.at(grid.routed.reshape(-1), to * self.S + t_sw, 1)
        if forward:
            dig[at_digit] = grid.port.reshape(-1)[hops]
            self.comb[ids] = False  # new slots, not yet combined
            # each sending stage's delays (``stage`` ascends)
            cut, counts = _run_bounds(_runs(stage))
            waited = np.add.reduceat(cycle - self.enq[ids].astype(np.int64), cut)
            for s, total, count in zip(stage[cut].tolist(), waited.tolist(),
                                       counts.tolist()):
                self.delay_sum[s] += total
                self.delay_count[s] += count
            self.enq[ids] = cycle
        return True

    def _move(self, lane: _Lane, target: Optional[_Lane], src: Any,
              cycle: int) -> None:
        """Send the heads of ``src``: endpoint-bound ones leave the
        network, the rest hop into ``target``.  The two groups do not
        interact (distinct receivers, and an endpoint delivery records
        no trace event), so taking them apart keeps the row-major
        outcome."""
        wire = lane.wire
        if wire.kind == _HOP:
            self._hop(lane, target, src, cycle)
            return
        if wire.kind == _END:
            self._exit(lane, src, cycle)
            return
        kinds = wire.kinds[src]
        assert not (kinds == _UNUSED).any(), "routed out an unused port"
        ends = src[kinds == _END]
        if ends.size:
            self._exit(lane, ends, cycle)
        hops = src[kinds == _HOP]
        if hops.size:
            self._hop(lane, target, hops, cycle)

    def _exit(self, lane: _Lane, src: Any, cycle: int) -> None:
        """Hand every sending head to its endpoint."""
        if lane.forward:
            self._exit_requests(lane, src, cycle)
        else:
            self._exit_replies(lane, src, cycle)

    def _exit_replies(self, lane: _Lane, src: Any, cycle: int) -> None:
        """Deliver the sending heads of ``src`` to their PNIs, which
        always take them, by tag and value: a lazy reply needs no
        Message at all.  A reply leaves with no links left, and its
        freed id is made neither lazy nor stale (see :meth:`_admit`)."""
        obj = self.obj
        if src.size < self.vector_min:
            ring, head, line = lane.ring, lane.head, lane.wire.to_l
            pes, tags, values = [], [], []
            for f in src.tolist():
                i = ring.item(f, head.item(f))
                status = self.vst.item(i)
                pes.append(line[f])
                tags.append(self.tag.item(i))
                values.append(self.val.item(i) if status == 1 else None
                              if status == 0 else obj[i].value)
                self._pop(lane, f, self.pk.item(i), cycle)
                self.lazy[i] = self.stale[i] = False
                self._release(i)
            self.kernel._deliver(pes, tags, values)
            return
        ids = lane.ring[src, lane.head[src]]
        ids_l = ids.tolist()
        status = self.vst[ids]
        self.kernel._deliver(
            lane.wire.to[src].tolist(), self.tag[ids].tolist(),
            [v if st == 1 else None if st == 0 else obj[i].value for v, st, i in
             zip(np.where(status == 1, self.val[ids], 0).tolist(),
                 status.tolist(), ids_l)])
        self.lazy[ids] = self.stale[ids] = False
        _consume(map(obj.__setitem__, ids_l, itertools.repeat(None)))
        self._free.extend(ids_l)
        self._pop_many(lane, src, self.pk[ids], np.arange(src.size), cycle)

    def _exit_requests(self, lane: _Lane, src: Any, cycle: int) -> None:
        """Offer the sending heads of ``src`` to their MNIs.  A request
        keeps its id at the memory side (:class:`_MemorySide`), links
        included, and remembers the queue it left by."""
        memory = self.memory
        copies, copy = memory.copies, self.copy
        wire = lane.wire
        ent = lane.stage * self.Q
        if src.size < self.vector_min:
            ring, head, k, line = lane.ring, lane.head, self.k, wire.to_l
            for f in src.tolist():
                i = ring.item(f, head.item(f))
                packets = self.pk.item(i)
                if memory.take(i * copies + copy, line[f], packets, cycle):
                    self.ent[i] = ent + f
                    self._pop(lane, f, packets, cycle)
                else:
                    lane.blocked[f // k] = lane.blocked.item(f // k) + 1
            return
        ids = lane.ring[src, lane.head[src]]
        packets = self.pk[ids]
        accepted = memory.take_many(ids * copies + copy, wire.to[src], packets,
                                    cycle)
        self.ent[ids[accepted]] = ent + src[accepted]
        self._pop_many(lane, src, packets, accepted, cycle)

    def _pop_many(self, lane: _Lane, src: Any, packets: Any, accepted: Any,
                  cycle: int) -> None:
        """Commit the sending side: pop the accepted heads (``accepted``
        indexes ``src``), occupy their links, count the refused ones."""
        if accepted.size == src.size:
            f, p = src, packets
        else:
            refused = np.ones(src.size, dtype=bool)
            refused[accepted] = False
            np.add.at(lane.blocked, src[refused] // self.k, 1)
            if not accepted.size:
                return
            f = src[accepted]
            p = packets[accepted]
        lane.head[f] = (lane.head[f] + 1) % lane.slots
        lane.len[f] -= 1
        lane.used[f] -= p
        lane.busy[f] = cycle + p
        lane.grid.tot -= accepted.size

    def _hop(self, lane: _Lane, target: _Lane, src: Any, cycle: int) -> None:
        """Move the heads of the sending queues ``src`` of ``lane``
        into ``target``."""
        if src.size < self.vector_min:
            self._serial(lane, target, src.tolist(), cycle)
            return
        ids = lane.ring[src, lane.head[src]]
        t_sw, t_port = lane.wire.to[src], lane.wire.port[src]
        if lane.forward:
            # read first: a later offer may combine into an earlier head
            packets = self.pk[ids]
            taken = self._offer_requests(target, ids, t_sw, t_port, cycle)
        else:
            taken = self._offer_replies(target, ids, t_sw, t_port, cycle)
            # a decombined reply pops with its rewritten packet count, as
            # a switch's queue does
            packets = self.pk[ids]
        self._pop_many(lane, src, packets, taken, cycle)

    def _ranks(self, group: Any) -> tuple[Any, Any, int]:
        """A stable sort of ``group``, each entry's position among the
        entries of its group (in order), and the number of positions."""
        n = group.size
        if n < 2:
            return np.arange(n), np.zeros(n, dtype=np.int64), 1
        order = np.argsort(group, kind="stable")
        first = _runs(group[order])
        if first.all():
            return order, np.zeros(n, dtype=np.int64), 1
        pos = np.arange(n)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = pos - np.maximum.accumulate(np.where(first, pos, 0))
        return order, rank, int(rank.max()) + 1

    def _serial(self, lane: _Lane, target: _Lane, src: list[int],
                cycle: int) -> None:
        """Offer the heads of the sending queues ``src`` one at a time,
        in row-major order."""
        forward = lane.forward
        offer = self._offer_forward if forward else self._offer_return
        t_sw, t_port = lane.wire.to_l, lane.wire.port_l
        head, dig = lane.head, self.dig
        stage = target.stage
        k = self.k
        for f in src:
            # a push into ``target`` may grow the direction's rings,
            # this lane's included
            i = lane.ring.item(f, head.item(f))
            if offer(target, t_sw[f], t_port[f], dig.item(i, stage), i, cycle):
                self._pop(lane, f, self.pk.item(i), cycle)
            else:
                lane.blocked[f // k] = lane.blocked.item(f // k) + 1

    def _one_by_one(self, target: _Lane, ids: Any, t_sw: Any, t_port: Any,
                    out: Any, which: Any, accepted: Any, cycle: int) -> None:
        """Per-message offers of the entries ``which`` (in order)."""
        offer = self._offer_forward if target.forward else self._offer_return
        for x, i, sw_i, port, o in zip(which.tolist(), ids[which].tolist(),
                                       t_sw[which].tolist(), t_port[which].tolist(),
                                       out[which].tolist()):
            accepted[x] = offer(target, sw_i, port, o, i, cycle)

    # -- requests -------------------------------------------------------
    def _offer_requests(self, target: _Lane, ids: Any, t_sw: Any, t_port: Any,
                        cycle: int) -> Any:
        """Offer requests ``ids`` (in row-major order) to ``target``,
        arriving at switches ``t_sw`` on ports ``t_port``; returns the
        indices of those taken.

        Offers interact only through their target queue (its slots and
        wait buffer), so taking them in rank order within queues is the
        row-major outcome: each rank settles completely, vectorized,
        before the next meets its heads as residents."""
        out = self.dig[ids, target.stage]
        tq = t_sw * self.k + out
        order, rank, ranks = self._ranks(tq)
        flagged = self._flagged(target.grid, ids, target.at + tq, order)
        if flagged is None:
            return self._append(target, ids, tq, t_sw, t_port, cycle, rank, ranks)
        n = ids.size
        accepted = np.zeros(n, dtype=bool)
        if self._instr_on:
            # The trace records every offer in offer order.
            self._one_by_one(target, ids, t_sw, t_port, out, np.arange(n),
                             accepted, cycle)
            return np.flatnonzero(accepted)
        for r in range(ranks):
            phase = rank == r
            plain = phase & ~flagged
            pick = np.flatnonzero(phase & flagged)
            if pick.size and self.vector:
                pick = self._combine(target, ids, tq, t_sw, t_port, pick,
                                     plain, accepted, cycle)
            sel = np.flatnonzero(plain)
            if sel.size:
                accepted[sel[self._append(target, ids[sel], tq[sel], t_sw[sel],
                                          t_port[sel], cycle)]] = True
            self._one_by_one(target, ids, t_sw, t_port, out, pick, accepted,
                             cycle)
        return np.flatnonzero(accepted)

    def _flagged(self, grid: _Grid, ids: Any, tq: Any, order: Any,
                 cycle: Optional[int] = None) -> Optional[Any]:
        """Requests that may combine, or None if none: the target queue
        (``tq``: flat indices into ``grid``) holds an uncombined request
        for the same cell, or an earlier offer of this step goes to the
        same queue with the same cell (``order`` sorts the offers stably
        by target queue).  Cells are compared by key (:func:`_cell_key`).

        With ``cycle`` the queues are taken before any pop of a one-pass
        step, and a head that is sure to leave first is no resident: one
        that hops (every hop is taken when no offer of the step may
        combine or be refused, by induction over the staged order) or
        exits to an MNI, which takes it unless its inbound capacity is
        finite."""
        if not self.combining:
            return None
        key = self.key[ids]
        flagged = np.zeros(ids.size, dtype=bool)
        by_queue, by_key = tq[order], key[order]
        # A queue has at most k senders, so an earlier one with the same
        # cell sits fewer than k places before in the sorted order.
        for d in range(1, min(self.k, ids.size)):
            same = (by_queue[d:] == by_queue[:-d]) & (by_key[d:] == by_key[:-d])
            flagged[order[d:][same]] = True
        busy = np.flatnonzero(grid.len.reshape(-1)[tq])
        if busy.size:
            q = tq[busy]
            resident, live = grid.residents(q)
            hit = live & (self.key[resident] == key[busy][:, None])
            if self.pairwise:
                hit &= ~self.comb[resident]
            if cycle is not None:
                leaves = grid.busy.reshape(-1)[q] <= cycle
                if self.memory.cap is not None:
                    leaves &= grid.kinds.reshape(-1)[q] == _HOP
                hit[:, 0] &= ~leaves
            flagged[busy] |= hit.any(axis=1)
        return flagged if flagged.any() else None

    def _combine(self, target: _Lane, ids: Any, tq: Any, t_sw: Any,
                 t_port: Any, pick: Any, plain: Any, accepted: Any,
                 cycle: int) -> Any:
        """Vectorized combining of the offers ``pick`` (one rank, so
        distinct target queues).  Each meets the first uncombined
        resident with its cell key: a homogeneous F&A/Load/Store
        partner within the exactness bound combines here; with none, a
        full wait buffer or a fan-out ``decombine_fits`` refuses, the
        offer is marked ``plain`` (an append); the rest are returned
        for the per-message path."""
        stage = target.stage
        h, q = ids[pick], tq[pick]
        resident, live = target.residents(q)
        hit = live & (self.key[resident] == self.key[h][:, None]) & ~self.comb[resident]
        found = hit.any(axis=1)
        j = resident[np.arange(pick.size), hit.argmax(axis=1)]
        wb = stage * self.Q + q
        if self.wcap is not None:
            found &= self.wb_occ[wb] < self.wcap
        kind = self.vk[h]
        e, f = self.opnd[j], self.opnd[h]
        total = np.where(kind == _FA, e + f, np.where(kind == _STORE, f, 0))
        same = (kind != 0) & (self.vk[j] == kind) & (np.abs(total) < _EXACT)
        fits = self.fits[kind, (self.dig[j, stage] == t_port[pick]).astype(np.intp)]
        go = found & same & fits
        plain[pick[~found | (same & ~fits)]] = True
        if go.any():
            g, h, j, wb, kind = pick[go], h[go], j[go], wb[go], kind[go]
            if stage:
                self._count_delays(stage, h, cycle)
            self.dig[h, stage] = t_port[g]
            self.w_dat[h] = e[go]
            self.opnd[j] = total[go]
            self.depth[j] = np.maximum(self.depth[j], self.depth[h]) + 1
            self.comb[j] = True
            self.stale[j] = True
            self.w_at[h] = wb
            self.w_prev[h] = self.link[j, stage]
            self.link[j, stage] = h
            self.w_tag[h] = self.tag[j]
            self.w_made[h] = cycle
            self.w_kind[h] = kind
            self.w_seq[h] = self._seq + np.arange(g.size)
            self._seq += g.size
            occupancy = self.wb_occ[wb] + 1
            self.wb_occ[wb] = occupancy
            self.wb_peak[wb] = np.maximum(self.wb_peak[wb], occupancy)
            self.wb_ins[wb] += 1
            self.wb_dirty[wb] = True
            qg = q[go]
            target.combs[qg] += 1
            np.add.at(target.merged, t_sw[g], 1)
            np.add.at(target.routed, t_sw[g], 1)
            accepted[g] = True
        return pick[found & ~same]

    def _append(self, target: _Lane, ids: Any, tq: Any, t_sw: Any, t_port: Any,
                cycle: int, rank: Any = None, ranks: int = 1) -> Any:
        """Vectorized offers of messages that neither combine nor
        decombine; returns the indices of those taken.

        Offers to one queue are taken in rank order (``rank`` = position
        among this step's offers to that queue, row-major; None when the
        target queues are distinct), each against the capacity left by
        the ranks before it — the greedy check
        ``Switch.offer_forward``/``offer_return`` make in offer order."""
        n = ids.size
        packets = self.pk[ids]
        while int(target.len[tq].max()) + ranks > target.slots:
            target.grid.grow()
        slots = target.slots
        cap = self.cap
        accepted = np.ones(n, dtype=bool) if cap is None else np.zeros(n, dtype=bool)
        post = np.zeros(n, dtype=np.int64) if target.hist is not None else None
        for r in range(ranks):
            if ranks == 1:
                sel, q, p = np.arange(n), tq, packets
            else:
                sel = np.flatnonzero(rank == r)
                q, p = tq[sel], packets[sel]
            used = target.used[q] + p
            if cap is not None:
                fits = used <= cap
                if not fits.all():
                    sel, q, used = sel[fits], q[fits], used[fits]
                accepted[sel] = True
            held = target.len[q]
            target.ring[q, (target.head[q] + held) % slots] = ids[sel]
            target.len[q] = held + 1
            target.used[q] = used
            target.ins[q] += 1
            if post is not None:
                post[sel] = used
        taken = np.flatnonzero(accepted)
        if taken.size:
            q = tq[taken]
            target.peak[q] = np.maximum(target.peak[q], target.used[q])
            target.grid.tot += taken.size
            np.add.at(target.routed, t_sw[taken], 1)
            if target.forward:
                moved = ids[taken]
                stage = target.stage
                if stage:
                    self._count_delays(stage, moved, cycle)
                self.dig[moved, stage] = t_port[taken]
                self.comb[moved] = False  # new slots, not yet combined
                self.enq[moved] = cycle
            if self._instr_on:
                self._record_appends(target, ids[taken], post, taken, cycle)
        return taken

    def _record_appends(self, target: _Lane, ids: Any, post: Any, taken: Any,
                        cycle: int) -> None:
        """Instrumentation of vectorized appends, in offer order: the
        queue-occupancy observation and (forward) the enqueue event."""
        stage = target.stage
        record = self._instr.record
        hist = target.hist
        occupancy = post[taken].tolist() if post is not None else None
        for n, i in enumerate(ids.tolist()):
            if target.forward:
                message = self.obj[i]
                record("enqueue", cycle, tag=message.tag, pe=message.origin,
                       stage=stage)
            if hist is not None:
                hist.observe(occupancy[n])

    # -- replies --------------------------------------------------------
    def _offer_replies(self, target: _Lane, ids: Any, t_sw: Any, t_port: Any,
                       cycle: int) -> Any:
        """Offer replies ``ids`` (in row-major order) to ``target``;
        returns the indices of those taken.  A decombining fan-out reaches every
        port of its switch, so once one is present the offers are taken
        in rank order within target switches."""
        stage = target.stage
        out = self.dig[ids, stage]
        tq = t_sw * self.k + out
        records = self.link[ids, stage]
        hits = records >= 0
        if not hits.any():
            _, rank, ranks = self._ranks(tq)
            return self._append(target, ids, tq, t_sw, t_port, cycle, rank, ranks)
        n = ids.size
        accepted = np.zeros(n, dtype=bool)
        if self._instr_on:
            self._one_by_one(target, ids, t_sw, t_port, out, np.arange(n),
                             accepted, cycle)
            return np.flatnonzero(accepted)
        _, rank, ranks = self._ranks(t_sw)
        for r in range(ranks):
            phase = rank == r
            plain = np.flatnonzero(phase & ~hits)
            if plain.size:
                accepted[plain[self._append(target, ids[plain], tq[plain],
                                            t_sw[plain], t_port[plain],
                                            cycle)]] = True
            pick = np.flatnonzero(phase & hits)
            if pick.size and self.vector:
                pick = self._decombine(target, ids, records, tq, t_sw, t_port,
                                       pick, accepted)
            self._one_by_one(target, ids, t_sw, t_port, out, pick, accepted,
                             cycle)
        return np.flatnonzero(accepted)

    def _decombine(self, target: _Lane, ids: Any, records: Any, tq: Any,
                   t_sw: Any, t_port: Any, pick: Any, accepted: Any) -> Any:
        """Vectorized decombining of the replies ``pick`` (one rank, so
        distinct target switches), each with one vectorized record: R-old
        keeps Y and R-new's id leaves as the reply Y+e (F&A), Y (Load)
        or an acknowledgement (Store), partner first when both take one
        port.  Returns the offers left for the per-message path."""
        stage = target.stage
        h, r = ids[pick], records[pick]
        kind = self.w_kind[r]
        status = self.vst[h]
        value = np.where(kind == _FA, self.val[h] + self.w_dat[r], self.val[h])
        ok = ((kind != 0) & (self.w_prev[r] < 0)
              & np.where(kind == _STORE, status == 0,
                         (status == 1) & (np.abs(value) < _EXACT)))
        serial = pick[~ok]
        if not ok.any():
            return serial
        pick, h, r, kind, value = pick[ok], h[ok], r[ok], kind[ok], value[ok]
        q_old = tq[pick]
        q_new = t_sw[pick] * self.k + self.dig[r, stage]
        p_old = self.pk[h]
        p_new = np.where(kind == _STORE, PACKETS_WITHOUT_DATA, PACKETS_WITH_DATA)
        if self.cap is not None:
            used_old, used_new = target.used[q_old], target.used[q_new]
            fit = np.where(q_old == q_new, used_old + p_old + p_new <= self.cap,
                           (used_old + p_old <= self.cap)
                           & (used_new + p_new <= self.cap))
            if not fit.all():
                pick, h, r, kind, value = (pick[fit], h[fit], r[fit], kind[fit],
                                           value[fit])
                q_old, q_new, p_old, p_new = (q_old[fit], q_new[fit],
                                              p_old[fit], p_new[fit])
        if not pick.size:
            return serial
        self.val[r] = value
        self.vst[r] = kind != _STORE
        self.pk[r] = p_new
        self.lazy[r] = True
        self.w_at[r] = -1
        self.link[h, stage] = -1
        target.push_many(q_new, r, p_new)
        target.push_many(q_old, h, p_old)
        wb = stage * self.Q + t_sw[pick] * self.k + t_port[pick]
        self.wb_occ[wb] -= 1
        self.wb_dirty[wb] = True
        target.merged[t_sw[pick]] += 1
        target.routed[t_sw[pick]] += 2
        accepted[pick] = True
        return serial

#: a ready or done cycle that never comes (an empty ring's head)
_NEVER = np.iinfo(np.int64).max


class _Rings:
    """One FIFO ring per memory module with int64 columns (``cols[c]``
    of shape (modules, slots)), oldest entry at ``head``."""

    __slots__ = ("head", "len", "slots", "cols")

    def __init__(self, n: int, columns: int, slots: int = _RING_START) -> None:
        self.slots = slots
        self.head = np.zeros(n, dtype=np.int64)
        self.len = np.zeros(n, dtype=np.int64)
        self.cols = [np.zeros((n, slots), dtype=np.int64) for _ in range(columns)]

    def grow(self) -> None:
        """Double the rings, unrolling every one to start at slot 0."""
        slots = self.slots
        order = (self.head[:, None] + np.arange(slots)) % slots
        for c, col in enumerate(self.cols):
            new = np.zeros((col.shape[0], 2 * slots), dtype=np.int64)
            new[:, :slots] = np.take_along_axis(col, order, axis=1)
            self.cols[c] = new
        self.slots = 2 * slots
        self.head[:] = 0

    def push(self, m: Any, *values: Any) -> None:
        """Append one entry to each of the distinct rings ``m``."""
        while int(self.len[m].max()) >= self.slots:
            self.grow()
        held = self.len[m]
        pos = (self.head[m] + held) % self.slots
        for col, value in zip(self.cols, values):
            col[m, pos] = value
        self.len[m] = held + 1

    def push_one(self, m: int, *values: int) -> None:
        held = self.len.item(m)
        if held == self.slots:
            self.grow()
        pos = (self.head.item(m) + held) % self.slots
        for col, value in zip(self.cols, values):
            col[m, pos] = value
        self.len[m] = held + 1

    def heads(self, m: Any) -> list[Any]:
        """Each column's head entries of the (non-empty) rings ``m``."""
        head = self.head[m]
        return [col[m, head] for col in self.cols]

    def pop(self, m: Any) -> None:
        self.head[m] = (self.head[m] + 1) % self.slots
        self.len[m] -= 1

    def pop_one(self, m: int) -> list[int]:
        """Remove ring ``m``'s head entry; returns its columns."""
        head = self.head.item(m)
        entry = [col.item(m, head) for col in self.cols]
        self.head[m] = (head + 1) % self.slots
        self.len[m] = self.len.item(m) - 1
        return entry

    def window(self, m: Any) -> tuple[list[Any], Any]:
        """Each column's rings ``m`` as rows from their heads (oldest
        first), and which slots hold an entry."""
        pos = np.arange(self.slots)
        at = (self.head[m][:, None] + pos) % self.slots
        return ([col[m[:, None], at] for col in self.cols],
                pos < self.len[m][:, None])


class _MemorySide:
    """The machine's MNIs as arrays, one entry per memory module.

    A message at the memory side stays in its copy's plane under its id;
    here it is the reference ``ref = id * copies + copy``.  ``inbound``
    rings hold (ref, ready cycle, packets) of the requests assembling or
    queued, against ``used`` packets and the MNI's capacity, with
    ``first`` the head's ready cycle (:data:`_NEVER` when empty);
    ``svc``/``done`` are the request in service (-1: none) and the cycle
    it completes; ``outbound`` rings hold the replies, and ``link`` is
    each MNI's output link ``busy_until``.  ``served`` and ``busy`` are
    the MNI counters, ``busy`` in closed form: a service adds the
    module's whole latency when it starts, and the view subtracts what
    has not elapsed by ``clock``, the cycle the counters have run up to
    (one past the last phase 1, or where a fast-forward landed).
    ``dirty`` marks the MNIs to write back at the next flush.
    ``serving`` holds the MNIs with a request assembling,
    queued or in service, and ``replying`` those with replies queued: a
    phase with fewer of them than :attr:`vector_min` visits them one at
    a time, in ascending-MM order, instead of masking every MNI.  The
    MNI objects are the object view, written back by :meth:`flush`;
    :meth:`resync` rebuilds the arrays from them.
    """

    def __init__(self, kernel: "BatchKernel") -> None:
        m = kernel.machine
        self.machine = m
        self.mnis = m._mnis
        self.modules = [mni.module for mni in self.mnis]
        self.copies = len(m._networks)
        self.planes: list[_MessagePlane] = []
        self.cap = m.config.mni_inbound_capacity_packets
        instr = m.instrumentation
        self._instr = instr
        self._instr_on = instr.enabled
        self.latency = np.array([module.latency for module in self.modules],
                                dtype=np.int64)

    def resync(self, ids: list[list[int]]) -> None:
        """Rebuild the arrays from the MNI objects; ``ids`` are the plane
        ids of :meth:`held`'s messages, copy by copy."""
        copies = self.copies
        copy_by_tag = self.machine._copy_by_tag
        left = [iter(copy_ids) for copy_ids in ids]

        def ref(message: "Message") -> int:
            copy = copy_by_tag[message.tag]
            return next(left[copy]) * copies + copy

        n = len(self.mnis)
        most = max([_RING_START] + [len(mni._inbound) for mni in self.mnis]
                   + [len(mni.outbound) for mni in self.mnis])
        slots = 1 << (most - 1).bit_length()
        self.inbound = _Rings(n, 3, slots)
        self.outbound = _Rings(n, 1, slots)
        self.used = np.zeros(n, dtype=np.int64)
        self.first = np.full(n, _NEVER, dtype=np.int64)
        self.svc = np.full(n, -1, dtype=np.int64)
        self.done = np.zeros(n, dtype=np.int64)
        self.link = np.zeros(n, dtype=np.int64)
        self.served = np.zeros(n, dtype=np.int64)
        self.busy = np.zeros(n, dtype=np.int64)
        self.dirty = np.zeros(n, dtype=bool)
        self.serving: set[int] = set()
        self.replying: set[int] = set()
        cycle = self.clock = self.machine.cycle
        for mm, mni in enumerate(self.mnis):
            for message, ready in mni._inbound:
                self.inbound.push_one(mm, ref(message), ready, message.packets)
            if mni._inbound:
                self.first[mm] = mni._inbound[0][1]
            self.used[mm] = mni._inbound_packets
            busy = mni.busy_cycles
            if mni._in_service is not None:
                message, done = mni._in_service
                self.svc[mm] = ref(message)
                self.done[mm] = done
                busy += done - cycle
                self.dirty[mm] = True
            for message in mni.outbound:
                self.outbound.push_one(mm, ref(message))
            if mni._inbound or mni._in_service is not None:
                self.serving.add(mm)
            if mni.outbound:
                self.replying.add(mm)
            self.link[mm] = mni._link_busy_until
            self.served[mm] = mni.requests_served
            self.busy[mm] = busy

    def held(self) -> list[list["Message"]]:
        """The messages the MNI objects hold, per network copy, in the
        order :meth:`resync` reads them."""
        copy_by_tag = self.machine._copy_by_tag
        held: list[list["Message"]] = [[] for _ in range(self.copies)]
        for mni in self.mnis:
            messages = [message for message, _ in mni._inbound]
            if mni._in_service is not None:
                messages.append(mni._in_service[0])
            messages.extend(mni.outbound)
            for message in messages:
                held[copy_by_tag[message.tag]].append(message)
        return held

    def _objects(self, refs: Any, replies: bool) -> list["Message"]:
        """The Messages of ``refs``: requests with their op and digits
        written back, or replies (the lazy ones built now)."""
        copies = self.copies
        found: list[Any] = [None] * refs.size
        for copy, plane in enumerate(self.planes):
            sel = np.flatnonzero(refs % copies == copy)
            if not sel.size:
                continue
            ids = refs[sel] // copies
            if replies:
                lazy = ids[plane.lazy[ids]]
                if lazy.size:
                    plane._build_replies(lazy)
            else:
                for i in ids[plane.stale[ids]].tolist():
                    plane._sync(i)
                for i, digits in zip(ids.tolist(), plane.dig[ids].tolist()):
                    plane.obj[i].digits = digits
            obj = plane.obj
            for x, i in zip(sel.tolist(), ids.tolist()):
                found[x] = obj[i]
        return found

    def flush(self) -> None:
        """Write the MNIs touched since the last flush back into their
        objects (an MNI in service stays marked: its busy count grows)."""
        touched = np.flatnonzero(self.dirty)
        if not touched.size:
            return
        (refs, ready, _), live = self.inbound.window(touched)
        inbound = iter(self._objects(refs[live], False))
        ready_l = ready[live].tolist()
        (out_refs,), out_live = self.outbound.window(touched)
        outbound = iter(self._objects(out_refs[out_live], True))
        svc = self.svc[touched]
        serving = iter(self._objects(svc[svc >= 0], False))
        cycle = self.clock
        start = 0
        for mm, held, queued, used, ref, done, link, served, busy in zip(
            touched.tolist(), live.sum(axis=1).tolist(),
            out_live.sum(axis=1).tolist(), self.used[touched].tolist(),
            svc.tolist(), self.done[touched].tolist(),
            self.link[touched].tolist(), self.served[touched].tolist(),
            self.busy[touched].tolist(),
        ):
            mni = self.mnis[mm]
            end = start + held
            mni._inbound = deque(zip(itertools.islice(inbound, held),
                                     ready_l[start:end]))
            start = end
            mni._inbound_packets = used
            if ref < 0:
                mni._in_service = None
            else:
                mni._in_service = (next(serving), done)
                busy -= done - cycle
            mni.outbound = deque(itertools.islice(outbound, queued))
            mni._link_busy_until = link
            mni.requests_served = served
            mni.busy_cycles = busy
        self.dirty[touched] = svc >= 0

    def export_state(self) -> dict[str, Any]:
        """The arrays with each reference as (copy, tag), for the
        round-trip tests."""
        copies = self.copies

        def tag(ref: int) -> tuple[int, int]:
            return ref % copies, self.planes[ref % copies].tag.item(ref // copies)

        every = np.arange(len(self.mnis))
        (refs, ready, packets), live = self.inbound.window(every)
        (out_refs,), out_live = self.outbound.window(every)
        busy = self.busy - np.where(self.svc >= 0, self.done - self.clock, 0)
        return {
            "inbound": [[(tag(r), t, p) for r, t, p in zip(
                refs[mm][live[mm]].tolist(), ready[mm][live[mm]].tolist(),
                packets[mm][live[mm]].tolist())] for mm in every.tolist()],
            "outbound": [[tag(r) for r in out_refs[mm][out_live[mm]].tolist()]
                         for mm in every.tolist()],
            "in_service": [None if r < 0 else (tag(r), d) for r, d in
                           zip(self.svc.tolist(), self.done.tolist())],
            "used": self.used.tolist(),
            "first": self.first.tolist(),
            "link": self.link.tolist(),
            "served": self.served.tolist(),
            "busy": busy.tolist(),
            "serving": sorted(self.serving),
            "replying": sorted(self.replying),
        }

    # ------------------------------------------------------------------
    # phase 2: requests arrive (``MNI.offer_inbound``)
    # ------------------------------------------------------------------
    def take(self, ref: int, mm: int, packets: int, cycle: int) -> bool:
        """Offer one request to MNI ``mm``."""
        used = self.used.item(mm) + packets
        if self.cap is not None and used > self.cap:
            return False
        ready = cycle + max(0, packets - 1)
        if not self.inbound.len.item(mm):
            self.first[mm] = ready
        self.inbound.push_one(mm, ref, ready, packets)
        self.used[mm] = used
        self.dirty[mm] = True
        self.serving.add(mm)
        if self._instr_on:
            self.mnis[mm]._inbound_histogram.observe(used)
        return True

    def take_many(self, refs: Any, mms: Any, packets: Any, cycle: int) -> Any:
        """Offer requests to the distinct MNIs ``mms``; returns the
        indices of those taken."""
        taken = np.arange(refs.size)
        if self.cap is not None:
            taken = np.flatnonzero(self.used[mms] + packets <= self.cap)
            if not taken.size:
                return taken
            refs, mms, packets = refs[taken], mms[taken], packets[taken]
        ready = cycle + np.maximum(packets - 1, 0)
        empty = self.inbound.len[mms] == 0
        self.first[mms[empty]] = ready[empty]
        self.inbound.push(mms, refs, ready, packets)
        used = self.used[mms] + packets
        self.used[mms] = used
        self.dirty[mms] = True
        self.serving.update(mms.tolist())
        if self._instr_on:
            for mm, n in zip(mms.tolist(), used.tolist()):
                self.mnis[mm]._inbound_histogram.observe(n)
        return taken

    # ------------------------------------------------------------------
    # phase 1: memory accesses complete and start (``MNI.tick``)
    # ------------------------------------------------------------------
    def serve(self, cycle: int) -> None:
        self.clock = cycle + 1
        serving = self.serving
        if len(serving) < self.vector_min:
            svc, first = self.svc, self.first
            for mm in sorted(serving):
                if svc.item(mm) >= 0 and self.done.item(mm) <= cycle:
                    self._complete_one(mm, cycle)
                if svc.item(mm) < 0:
                    if first.item(mm) <= cycle:
                        self._start_one(mm, cycle)
                    elif first.item(mm) == _NEVER:
                        serving.discard(mm)
            return
        svc = self.svc
        done = np.flatnonzero((svc >= 0) & (self.done <= cycle))
        if done.size:
            self._complete(done, cycle)
        start = np.flatnonzero((svc < 0) & (self.first <= cycle))
        if start.size:
            self._start(start, cycle)
        if done.size:
            idle = done[(svc[done] < 0) & (self.first[done] == _NEVER)]
            serving.difference_update(idle.tolist())

    @property
    def vector_min(self) -> int:
        """Below this many MNIs a phase works one MNI at a time (the
        planes' threshold)."""
        return self.planes[0].vector_min

    def _apply(self, mm: int, plane: "_MessagePlane", i: int,
               cycle: int) -> Optional[int]:
        """The access of request ``i`` at module ``mm``; returns its
        reply's value."""
        plane._sync(i)
        message = plane.obj[i]
        op = message.op
        module = self.modules[mm]
        effect = module.apply(op)
        module.accesses += 1
        if self._instr_on:
            self._instr.record("mm_serve", cycle, tag=message.tag, mm=mm)
        return effect.result if op.expects_value else None

    def _complete_one(self, mm: int, cycle: int) -> None:
        """Apply the request in service at ``mm`` at its module; it
        turns into its reply and queues for the link."""
        ref = self.svc.item(mm)
        plane, i = self.planes[ref % self.copies], ref // self.copies
        plane._turn_one(i, self._apply(mm, plane, i, cycle))
        self.outbound.push_one(mm, ref)
        self.served[mm] = self.served.item(mm) + 1
        self.svc[mm] = -1
        self.dirty[mm] = True
        self.replying.add(mm)

    def _complete(self, mms: Any, cycle: int) -> None:
        """:meth:`_complete_one` for every MNI in ``mms`` (ascending).
        An instrumented run takes them one at a time, so the trace
        records them in MM order across the copies."""
        if self._instr_on:
            for mm in mms.tolist():
                self._complete_one(mm, cycle)
            return
        refs = self.svc[mms]
        copies = self.copies
        for copy, plane in enumerate(self.planes):
            sel_mms, ids = mms, refs
            if copies > 1:
                sel = refs % copies == copy
                sel_mms, ids = mms[sel], refs[sel] // copies
                if not ids.size:
                    continue
            plane._turn(ids, [self._apply(mm, plane, i, cycle) for mm, i
                              in zip(sel_mms.tolist(), ids.tolist())])
        self.outbound.push(mms, refs)
        self.served[mms] += 1
        self.svc[mms] = -1
        self.dirty[mms] = True
        self.replying.update(mms.tolist())

    def _start_one(self, mm: int, cycle: int) -> None:
        """Start serving the (ready) head request of MNI ``mm``."""
        inbound = self.inbound
        ref, _, packets = inbound.pop_one(mm)
        self.used[mm] = self.used.item(mm) - packets
        self.svc[mm] = ref
        latency = self.latency.item(mm)
        self.done[mm] = cycle + latency
        self.busy[mm] = self.busy.item(mm) + latency
        self.first[mm] = (inbound.cols[1].item(mm, inbound.head.item(mm))
                          if inbound.len.item(mm) else _NEVER)
        self.dirty[mm] = True

    def _start(self, mms: Any, cycle: int) -> None:
        """:meth:`_start_one` for every MNI in ``mms``."""
        inbound = self.inbound
        refs, _, packets = inbound.heads(mms)
        inbound.pop(mms)
        self.used[mms] -= packets
        self.svc[mms] = refs
        latency = self.latency[mms]
        self.done[mms] = cycle + latency
        self.busy[mms] += latency
        more = inbound.len[mms] > 0
        self.first[mms] = _NEVER
        if more.any():
            rest = mms[more]
            self.first[rest] = inbound.cols[1][rest, inbound.head[rest]]
        self.dirty[mms] = True

    # ------------------------------------------------------------------
    # phase 5: replies leave (``MNI.tick_outbound``)
    # ------------------------------------------------------------------
    def reply(self, cycle: int) -> None:
        """Offer the head reply of every MNI whose link is free, in
        ascending-MM order: one batch per network copy (offers to
        different copies do not interact), or one reply at a time when
        few MNIs hold replies or in an instrumented run, whose trace
        interleaves the copies."""
        replying = self.replying
        if not replying:
            return
        out = self.outbound
        copies = self.copies
        planes = self.planes
        if len(replying) < self.vector_min or self._instr_on:
            link = self.link
            for mm in sorted(replying):
                if link.item(mm) > cycle:
                    continue
                ref = out.cols[0].item(mm, out.head.item(mm))
                plane, i = planes[ref % copies], ref // copies
                if plane.inject_reply(i, cycle):
                    out.pop_one(mm)
                    # a reply decombined at its entry leaves with its
                    # rewritten packet count, as the MNI's Message does
                    link[mm] = cycle + plane.pk.item(i)
                    self.dirty[mm] = True
                    if not out.len.item(mm):
                        replying.discard(mm)
            return
        mms = np.flatnonzero((out.len > 0) & (self.link <= cycle))
        if not mms.size:
            return
        (refs,) = out.heads(mms)
        taken = np.zeros(mms.size, dtype=bool)
        packets = np.zeros(mms.size, dtype=np.int64)
        for copy, plane in enumerate(planes):
            sel, ids = slice(None), refs
            if copies > 1:
                sel = np.flatnonzero(refs % copies == copy)
                if not sel.size:
                    continue
                ids = refs[sel] // copies
            taken[sel] = plane.inject_replies(ids, cycle)
            packets[sel] = plane.pk[ids]
        if taken.any():
            gone = mms[taken]
            out.pop(gone)
            self.link[gone] = cycle + packets[taken]
            self.dirty[gone] = True
            replying.difference_update(gone[out.len[gone] == 0].tolist())

    # ------------------------------------------------------------------
    # event horizon
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """``MNI.next_event_cycle`` over every MNI."""
        best = _NEVER
        if self.serving:
            best = int(np.where(self.svc >= 0, self.done, self.first).min())
        if self.replying:
            best = min(best, int(self.link[self.outbound.len > 0].min()))
        return None if best == _NEVER else max(cycle, best)


class BatchKernel(DenseKernel):
    """Vectorized stage-stepping kernel (``MachineConfig(kernel="batch")``).

    Executes the exact dense cycle — same seven phases, same component
    order — but moves network traffic a direction at a time in each
    copy's :class:`_MessagePlane` and visits only endpoints that can
    act.  See
    the module docstring for the design; bit-identity with the dense
    kernel is enforced by the differential grid.
    """

    name = "batch"

    def __init__(self, machine: "Ultracomputer") -> None:
        super().__init__(machine)
        self._built = False
        self._states: list[_MessagePlane] = []
        self._memory: Optional[_MemorySide] = None
        # PNIs with queued requests: the machine's set, which every PNI
        # joins on issue whatever driver issued.
        self._pni_out = machine._pni_ready
        # whether a cycle ran since the object view was last written
        self._unsynced = False

    # ------------------------------------------------------------------
    def _ensure_state(self) -> None:
        m = self.machine
        if not self._built:
            self._memory = _MemorySide(self)
            self._states = [_MessagePlane(net, self, copy)
                            for copy, net in enumerate(m._networks)]
            self._memory.planes = self._states
            self.resync()
            self._built = True

    def resync(self) -> None:
        """Rebuild every plane and the memory side from the object view.

        Used at construction (the objects may already hold traffic) and
        by the round-trip tests, which compare the arrays of a flushed
        kernel against those rebuilt from its own object view."""
        held = self._memory.held()
        self._memory.resync([plane.resync(messages)
                             for plane, messages in zip(self._states, held)])

    def sync(self) -> None:
        """Bring the object view up to date (queues, ports, switch and
        MNI counters) if a cycle ran since it last was; the machine's
        public readers call this first."""
        if not self._unsynced:
            return
        for state in self._states:
            state.flush()
        self._memory.flush()
        self._unsynced = False

    def combine_totals(self) -> tuple[int, int]:
        """The switch counters plus the planes' deltas not yet written
        back."""
        combines, decombines = super().combine_totals()
        for state in self._states:
            combines += int(state.fwd_grid.merged.sum())
            decombines += int(state.ret_grid.merged.sum())
        return combines, decombines

    def _deliver(self, pes: list[int], tags: list[int],
                 values: list[Optional[int]]) -> None:
        """``Ultracomputer._pe_sink`` for replies given by PE, tag and
        value (the PE side always takes them)."""
        m = self.machine
        pnis, cycle = m.pnis, m.cycle
        for pe, tag, value in zip(pes, tags, values):
            pnis[pe].deliver(tag, value, cycle)
        _consume(map(m._copy_by_tag.pop, tags, itertools.repeat(None)))

    def _inject_heads(self, cycle: int) -> None:
        """``PNI.tick_outbound`` for every PNI holding requests: the
        heads whose links are free are collected in ascending-PE order,
        offered, and the accepted ones committed.  Each network copy
        takes its heads as one batched offer (offers to different copies
        do not interact); an instrumented run's trace interleaves the
        copies, so there each head is offered on its own, in PE order."""
        m = self.machine
        pnis = m.pnis
        copy_by_tag = m._copy_by_tag
        instr = self._states[0]._instr_on
        offers: dict[int, tuple[int, list[int], list["Message"]]] = {}
        for pe in sorted(self._pni_out):
            pni = pnis[pe]
            if cycle >= pni._link_busy_until:
                head = pni.outbound[0]
                index = copy_by_tag.get(head.tag)
                if index is None:
                    m._copy_for_request(head)
                    index = copy_by_tag[head.tag]
                key = pe if instr else index
                group = offers.get(key)
                if group is None:
                    group = offers[key] = (index, [], [])
                group[1].append(pe)
                group[2].append(head)
        for index, pes, heads in offers.values():
            taken = self._states[index].inject_requests(pes, heads, cycle)
            for pe, head, ok in zip(pes, heads, taken):
                if ok:
                    pni = pnis[pe]
                    pni.outbound.popleft()
                    pni._link_busy_until = cycle + head.packets
                    if not pni.outbound:
                        self._pni_out.discard(pe)

    # ------------------------------------------------------------------
    # one executed cycle (dense phase order, array-scheduled)
    # ------------------------------------------------------------------
    def _step(self) -> None:
        m = self.machine
        cycle = m.cycle
        self._unsynced = True
        # 1. MNIs complete/start memory accesses.
        self._memory.serve(cycle)
        # 2. requests move one hop toward memory.
        for state in self._states:
            state.step_forward(cycle)
        # 3. PNIs inject queued requests into stage 0.
        if self._pni_out:
            self._inject_heads(cycle)
        # 4. replies move one hop toward the PEs.
        for state in self._states:
            state.step_return(cycle)
        # 5. MNIs inject queued replies where their requests left.
        self._memory.reply(cycle)
        # 6. drivers consume replies and issue new work.
        for driver in m.drivers:
            driver.tick(cycle)
        # 7. every clock advances.
        for network in m._networks:
            network.advance_cycle()
        m.cycle += 1

    def step(self) -> None:
        """Execute one cycle.  The object view is written back when the
        machine's public readers next look (:meth:`sync`), not here."""
        self._ensure_state()
        self._step()

    # ------------------------------------------------------------------
    # run-loop hooks (the loop itself is DenseKernel's)
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        """``machine.quiescent()`` decided from the arrays: the planes
        hold no message, no MNI holds work, no PNI holds a request and
        every driver is done.

        This is exact, not just necessary.  The machine's test adds
        that the switches hold no wait record and that no PNI has a
        request outstanding; both follow.  A request leaves its PNI's
        outstanding set only when its reply is delivered; until then it
        is queued at the PNI, in a plane, at the memory side, or
        absorbed into a wait record.  A wait record lives until the
        reply of the request that absorbed it passes back through its
        switch, and that request, or one that absorbed it in turn, is
        still in a plane or at the memory side.  So with every plane,
        MNI and PNI empty, nothing is outstanding and no record is left.
        Nothing here writes the object view back (``machine.quiescent()``
        would flush it and walk every switch)."""
        memory = self._memory
        if memory.serving or memory.replying or self._pni_out:
            return False
        for state in self._states:
            if state.has_messages():
                return False
        return all(driver.done() for driver in self.machine.drivers)

    def _next_event_cycle(self) -> Optional[int]:
        """Dense's horizon over the arrays, cheapest probes first: the
        planes, the memory side, the PNIs holding requests, and the
        drivers last (the program driver's probe walks its blocked
        PEs)."""
        cycle = self.machine.cycle
        for state in self._states:
            if state.has_messages():
                return cycle
        best = self._memory.next_event_cycle(cycle)
        if best == cycle:
            return cycle
        best = self._pni_horizon(cycle, best)
        if best == cycle:
            return cycle
        return self._driver_horizon(cycle, best)

    def _skip(self, delta: int) -> None:
        """The kernel's share of the skip: the memory side's busy counts
        are closed-form in its clock, and the object view goes stale."""
        self._unsynced = True
        self._memory.clock = self.machine.cycle + delta
