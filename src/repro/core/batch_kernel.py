"""The batch kernel: struct-of-arrays message plane for 1024–4096 PEs.

The paper's design point is a 4096-PE machine behind a 12-stage Omega
network — roughly 25k switches, 100k queues.  The dense kernel ticks
every one of them every cycle and the event kernel still pays per-object
Python costs for each awake component; neither reaches that scale.  This
kernel gets there by owning every message resident in the network in
numpy arrays and moving a whole stage of them per vectorized step:

* **Message plane.**  Each network copy is a :class:`_MessagePlane`.
  Every (direction, stage) is a :class:`_Lane`: a ring of message ids
  per (switch, port) queue plus its length, used packets, and
  output-link ``busy_until``.  Each message id stores its packets, a
  key of its ``(mm, offset)`` cell and its amalgam digits.  ``Message``
  objects are touched only at the endpoints (PNI → stage 0, any stage →
  MNI, MNI → the reply-entry stage, stage 0 → PNI) and on the
  per-message combining path.
* **Wiring from the topology.**  Each lane's per-queue tables (target
  kind, next switch and port, endpoint line) come from the targets
  :class:`~repro.network.multistage.MultistageNetwork` resolved at
  build, and injections go through the topology's ``inject_point`` and
  ``reply_entry``, so every registered fabric runs here.  A stage whose
  queues both eject and hop (hypercube, mesh) sends its endpoint-bound
  heads and its hopping heads as two groups.
* **One hop per stage.**  The transmit mask ``qlen != 0 & busy <=
  cycle`` finds every sending port of a direction at once; a stage's
  heads are gathered, their targets computed from the wiring tables
  and digits, and pops, pushes, link occupancy and the
  routed/blocked counters are committed by scatter.  Offers to one
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
* **Object view.**  The switch objects remain the reference model for
  the dense and event kernels.  Under this kernel the plane is
  authoritative and :meth:`_MessagePlane.flush` writes queue contents,
  combined requests' ``op``/``combine_depth``, port state, wait buffers
  and switch counters back at each public boundary, for the queues and
  wait buffers touched since the previous flush only.
* **Active-set endpoints.**  MNIs are visited only while assembling or
  serving (a set maintained at delivery time) and their outbound queues
  only while non-empty.  PNIs are visited only while they hold
  requests: ``PNI.issue`` adds its PE to a set the machine shares with
  the kernel, whatever driver issued, and phase 3 removes each PNI it
  drains.  The built-in :class:`ProgramDriver` is run through a
  vectorized shim that keeps per-PE state/compute/idle counters in
  arrays and touches PE objects only on the cycles they act.
* **Quiet-cycle fast-forward.**  Reused from the event kernel: when no
  component can act now, jump to the earliest future event and apply the
  skipped cycles' counters in closed form.

The contract is the registry-wide one (see :mod:`repro.core.scheduler`):
``RunResult.to_dict()`` — including per-PE stats, instrumentation
snapshot, and the cycle trace — must be bit-identical to the dense
kernel for any workload; ``tests/integration/test_kernel_equivalence.py``
sweeps the differential grid over all three kernels and
``tests/integration/test_batch_fuzz.py`` fuzzes the machine knobs on
every fabric.
"""

from __future__ import annotations

import heapq
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
    from .machine import ProgramDriver, Ultracomputer, _ProgramPE
    from .results import RunResult

__all__ = ["BatchKernel"]

# _ProgramPE states as the vectorized driver tracks them.  The numeric
# order is arbitrary; what matters is that the categories are exclusive
# and mirror the branch order of ProgramDriver.tick.
_FRESH, _COMPUTING, _WAITING, _PENDING, _DONE = range(5)

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
        self.kinds = np.array(kinds, dtype=np.int8)
        self.to_l = [0 if t is None else t[1] for t in targets]
        self.port_l = [t[2] if kind == _HOP else 0
                       for t, kind in zip(targets, kinds)]
        self.to = np.array(self.to_l, dtype=np.int64)
        self.port = np.array(self.port_l, dtype=np.int64)


class _Lane:
    """One (direction, stage) of a network copy, as arrays.

    Queue ``f = switch * k + port`` (``k`` ports per switch) is the ToMM
    queue of that port for a forward lane and the ToPE queue for a
    return lane; ``wire`` says where its output leads.  ``ring[f]``
    holds its message ids, oldest at ``head[f]``; ``len``/``used``/
    ``busy``/``peak`` mirror the queue's length, used packets, output
    link ``busy_until`` and peak packets.  ``ins``/``combs``/``sent``/
    ``routed``/``merged``/``blocked`` accumulate counter deltas
    (``merged`` counts a forward lane's combines and a return lane's
    decombines) and ``dirty`` marks queues changed since the last
    flush.  ``len`` and ``busy`` are rows of per-direction ``(stages,
    queues)`` arrays, so one mask finds the senders of every stage.
    """

    __slots__ = (
        "stage", "forward", "switches", "queues", "ports", "hist",
        "len", "used", "busy", "peak", "head", "ring", "slots", "ins", "combs",
        "sent", "dirty", "routed", "merged", "blocked", "tot", "wire",
    )

    def __init__(self, stage: int, forward: bool, switches: list,
                 wire: _Wiring, ring_slots: int, length: Any, busy: Any) -> None:
        self.stage = stage
        self.forward = forward
        self.switches = switches
        self.queues = [q for sw in switches
                       for q in (sw.to_mm if forward else sw.to_pe)]
        self.ports = [p for sw in switches
                      for p in (sw.mm_ports if forward else sw.pe_ports)]
        self.hist = self.queues[0]._occupancy_histogram
        n = len(self.queues)
        self.len = length
        self.used = np.zeros(n, dtype=np.int32)
        self.busy = busy
        self.peak = np.zeros(n, dtype=np.int32)
        self.head = np.zeros(n, dtype=np.int32)
        self.ring = np.zeros((n, ring_slots), dtype=np.int32)
        self.slots = ring_slots
        self.ins = np.zeros(n, dtype=np.int32)
        self.combs = np.zeros(n, dtype=np.int32)
        self.sent = np.zeros(n, dtype=np.int32)
        self.dirty = np.zeros(n, dtype=bool)
        self.routed = np.zeros(len(switches), dtype=np.int64)
        self.merged = np.zeros(len(switches), dtype=np.int64)
        self.blocked = np.zeros(len(switches), dtype=np.int64)
        self.tot = 0
        self.wire = wire

    def grow(self) -> None:
        """Double the ring, unrolling every queue to start at slot 0."""
        slots = self.slots
        order = (self.head[:, None] + np.arange(slots)) % slots
        ring = np.zeros((self.ring.shape[0], 2 * slots), dtype=np.int32)
        ring[:, :slots] = np.take_along_axis(self.ring, order, axis=1)
        self.ring = ring
        self.slots = 2 * slots
        self.head[:] = 0

    def contents(self, queues: Any) -> tuple[Any, Any]:
        """Message ids of ``queues``, queue by queue and oldest first,
        with each queue's length."""
        rows, live = self.residents(queues)
        return rows[live], self.len[queues]

    def residents(self, q: Any) -> tuple[Any, Any]:
        """Ring rows of the queues ``q`` from their heads (oldest first),
        and which slots hold a message."""
        pos = np.arange(self.slots)
        rows = self.ring[q[:, None], (self.head[q][:, None] + pos) % self.slots]
        return rows, pos < self.len[q][:, None]

    def push_many(self, q: Any, ids: Any, packets: Any) -> None:
        """Append ``ids`` to the distinct queues ``q`` (no capacity check)."""
        while int(self.len[q].max()) >= self.slots:
            self.grow()
        held = self.len[q]
        self.ring[q, (self.head[q] + held) % self.slots] = ids
        self.len[q] = held + 1
        used = self.used[q] + packets
        self.used[q] = used
        self.peak[q] = np.maximum(self.peak[q], used)
        self.ins[q] += 1
        self.dirty[q] = True
        self.tot += q.size


class _MessagePlane:
    """Every message resident in one network copy, in struct-of-arrays
    form, moved a stage at a time (see the module docstring)."""

    #: a stage step or injection with fewer heads than this moves them
    #: one at a time: below it the vectorized step's fixed cost is the
    #: larger
    vector_min = 32

    def __init__(self, network: "MultistageNetwork",
                 kernel: "BatchKernel") -> None:
        self.network = network
        self.kernel = kernel
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
        instr = network.instrumentation
        self._instr = instr
        self._instr_on = instr.enabled
        #: whether combining and decombining may take the vectorized path
        self.vector = self.combining and self.pairwise and not instr.enabled
        slots = _RING_START
        shape = (self.D, self.Q)
        self.fwd_len, self.fwd_busy = np.zeros(shape, np.int32), np.zeros(shape, np.int64)
        self.ret_len, self.ret_busy = np.zeros(shape, np.int32), np.zeros(shape, np.int64)
        wires: dict[int, _Wiring] = {}  # stages wired alike share a list
        for targets in network.forward_targets + network.return_targets:
            if id(targets) not in wires:
                wires[id(targets)] = _Wiring(targets)
        self.fwd = [_Lane(s, True, row, wires[id(network.forward_targets[s])],
                          slots, self.fwd_len[s], self.fwd_busy[s])
                    for s, row in enumerate(network.stages)]
        self.ret = [_Lane(s, False, row, wires[id(network.return_targets[s])],
                          slots, self.ret_len[s], self.ret_busy[s])
                    for s, row in enumerate(network.stages)]
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
        self.resync()

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
        has no links and is neither stale nor lazy (see :meth:`_exit`)."""
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
        return i

    def _admit_many(self, messages: list["Message"]) -> Any:
        """:meth:`_admit` for a batch of requests, one array write per
        field."""
        n = len(messages)
        while len(self._free) < n:
            self._grow_pool()
        ids_l = self._free[-n:]
        del self._free[-n:]
        obj = self.obj
        for i, message in zip(ids_l, messages):
            obj[i] = message
        ids = np.array(ids_l, dtype=np.int64)
        rows = np.array([(m.packets, m.tag, m.combine_depth) + _request_fields(m)
                         for m in messages], dtype=np.int64)
        for col, name in enumerate(("pk", "tag", "depth", "key", "vk", "opnd")):
            getattr(self, name)[ids] = rows[:, col]
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

    def _reply(self, i: int) -> "Message":
        """The reply Message of id ``i``, built now if it is lazy."""
        if self.lazy.item(i):
            self._build_replies(np.array([i]))
        return self.obj[i]

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
    def resync(self) -> None:
        """Rebuild the whole plane from the switch objects.

        Used at construction (the objects may already hold traffic) and
        by the round-trip tests, which compare a flushed plane against
        one rebuilt from its own object view."""
        lanes = self.fwd + self.ret
        lengths = [[len(q._slots) for q in lane.queues] for lane in lanes]
        wbs = self.wbs
        self.wb_occ = np.array([wb._occupancy for wb in wbs], dtype=np.int32)
        self.wb_peak = np.array([wb.peak_occupancy for wb in wbs], dtype=np.int32)
        self.wb_ins = np.zeros(len(wbs), dtype=np.int32)
        self.wb_dirty = np.zeros(len(wbs), dtype=bool)
        self._new_pool(max(1024, 2 * (sum(map(sum, lengths))
                                      + int(self.wb_occ.sum()))))
        # link rows of requests at an MNI, keyed by tag (their replies
        # pick them up on injection)
        self.carry: dict[int, Any] = {}
        self._seq = 0
        by_tag: dict[int, int] = {}
        for lane, held in zip(lanes, lengths):
            lane.slots = max(lane.slots, max(held))
            lane.ring = np.zeros((len(held), lane.slots), dtype=np.int32)
            lane.len[:] = held
            lane.head[:] = 0
            lane.used[:] = [q.used_packets for q in lane.queues]
            lane.peak[:] = [q.peak_packets for q in lane.queues]
            lane.busy[:] = [p.busy_until for p in lane.ports]
            for arr in (lane.ins, lane.combs, lane.sent, lane.routed,
                        lane.merged, lane.blocked):
                arr[:] = 0
            lane.dirty[:] = False
            lane.tot = sum(held)
            for f in np.flatnonzero(lane.len).tolist():
                for j, slot in enumerate(lane.queues[f]._slots):
                    i = self._admit(slot.message, slot.already_combined)
                    lane.ring[f, j] = i
                    by_tag[slot.message.tag] = i
        found = []
        for wb_index in np.flatnonzero(self.wb_occ).tolist():
            for stack in wbs[wb_index]._records.values():
                for record in stack:
                    i = self._admit(record.new_message)
                    by_tag[record.new_message.tag] = i
                    found.append((wb_index, record, i))
        for wb_index, record, i in found:  # oldest first within a key
            stage = record.stage
            holder = by_tag.get(record.key_tag)
            if holder is None:  # R-old is at its memory module
                row = self.carry.setdefault(
                    record.key_tag, np.full(self.D, -1, dtype=np.int32))
                self.w_prev[i] = row[stage]
                row[stage] = i
            else:
                self.w_prev[i] = self.link.item(holder, stage)
                self.link[holder, stage] = i
            self.w_at[i] = wb_index
            self.w_tag[i] = record.key_tag
            self.w_made[i] = record.created_cycle
            self.w_plan[i] = record.plan
            self.w_kind[i] = 0
            self.w_seq[i] = self._seq
            self._seq += 1

    def export_state(self) -> dict[str, Any]:
        """Copy of the schedulable arrays (round-trip tests compare this
        against the arrays rebuilt by :meth:`resync`)."""
        shape = (self.S, self.k)
        return {
            "fwd_len": [lane.len.reshape(shape).copy() for lane in self.fwd],
            "fwd_busy": [lane.busy.reshape(shape).copy() for lane in self.fwd],
            "ret_len": [lane.len.reshape(shape).copy() for lane in self.ret],
            "ret_busy": [lane.busy.reshape(shape).copy() for lane in self.ret],
            "fwd_tot": [lane.tot for lane in self.fwd],
            "ret_tot": [lane.tot for lane in self.ret],
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
            touched = np.flatnonzero(lane.dirty)
            if touched.size:
                ids, lengths = lane.contents(touched)
                ids_l = ids.tolist()
                combined_l = self.comb[ids].tolist()
                if lane.forward:
                    for i in ids[self.stale[ids]].tolist():
                        self._sync(i)
                    for i, digits in zip(ids_l, self.dig[ids].tolist()):
                        obj[i].digits = digits
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
                    lane.busy[touched].tolist(), lane.sent[touched].tolist(),
                ):
                    queue = queues[f]
                    if n:
                        end = start + n
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
                        queue._slots = slots
                        queue._by_key = index
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
                for arr in (lane.ins, lane.combs, lane.sent):
                    arr[touched] = 0
                lane.dirty[touched] = False
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
        return any(lane.tot for lane in self.fwd) or any(
            lane.tot for lane in self.ret)

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

    def inject_reply(self, mm: int, message: "Message", cycle: int) -> bool:
        stage, sw_i, mm_port = self.topo.reply_entry(mm, message.origin)
        i = self._admit(message)
        row = self.carry.get(message.tag)
        if row is None:
            taken = self._offer_return(self.ret[stage], sw_i, mm_port,
                                       message.digits[stage], i, cycle)
        else:
            self.link[i] = row
            if self.vector and row[stage] >= 0 and self.vector_min <= 1:
                # a batch of one, vectorized only when every step is
                taken = self._offer_replies(
                    self.ret[stage], np.array([i]), np.array([sw_i]),
                    np.array([mm_port]), cycle).size > 0
            else:
                taken = self._offer_return(self.ret[stage], sw_i, mm_port,
                                           message.digits[stage], i, cycle)
            if taken:
                del self.carry[message.tag]
            else:
                self.link[i] = -1
        if not taken:
            self._release(i)
        return taken

    # ------------------------------------------------------------------
    # one message at a time: endpoints and the per-message combining
    # path (scalar reads go through ``item``, which skips numpy's scalar
    # boxing)
    # ------------------------------------------------------------------
    def _push(self, lane: _Lane, q: int, i: int, packets: int) -> None:
        n = lane.len.item(q)
        if n == lane.slots:
            lane.grow()
        lane.ring[q, (lane.head.item(q) + n) % lane.slots] = i
        lane.len[q] = n + 1
        used = lane.used.item(q) + packets
        lane.used[q] = used
        if used > lane.peak.item(q):
            lane.peak[q] = used
        lane.ins[q] = lane.ins.item(q) + 1
        lane.dirty[q] = True
        lane.tot += 1
        if lane.hist is not None:
            lane.hist.observe(used)

    def _pop(self, lane: _Lane, f: int, packets: int, cycle: int) -> None:
        head = lane.head.item(f) + 1
        lane.head[f] = 0 if head == lane.slots else head
        lane.len[f] = lane.len.item(f) - 1
        lane.used[f] = lane.used.item(f) - packets
        lane.busy[f] = cycle + packets
        lane.sent[f] = lane.sent.item(f) + 1
        lane.dirty[f] = True
        lane.tot -= 1

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
        if partner is None:
            self.comb[i] = False  # a new slot, not yet combined here
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
            lane.dirty[q] = True
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
    # one hop per resident message, a whole stage per step
    # ------------------------------------------------------------------
    def step_forward(self, cycle: int) -> None:
        """Move requests one hop toward memory (dense phase 2), memory
        side first so each message advances at most one stage."""
        self._step(self.fwd, self.fwd_len, self.fwd_busy, cycle)

    def step_return(self, cycle: int) -> None:
        """Move replies one hop toward the PEs (dense phase 4)."""
        self._step(self.ret, self.ret_len, self.ret_busy, cycle)

    def _step(self, lanes: list[_Lane], length: Any, busy: Any,
              cycle: int) -> None:
        """Send the head of every transmitting queue of a direction, a
        stage at a time in the dense order (queues row-major within it).

        One mask serves the whole direction: a stage's queues change
        during a step only through its own pops and through pushes from
        the stage processed after it, so its senders are fixed before
        the step starts."""
        if not any(lane.tot for lane in lanes):
            return
        stages, queues = np.nonzero((length != 0) & (busy <= cycle))
        bounds = np.searchsorted(stages, np.arange(self.D + 1)).tolist()
        forward = lanes[0].forward
        for stage in range(self.D - 1, -1, -1) if forward else range(self.D):
            src = queues[bounds[stage]:bounds[stage + 1]]
            if src.size:
                nxt = stage + 1 if forward else stage - 1
                self._move(lanes[stage], lanes[nxt] if 0 <= nxt < self.D else None,
                           src, cycle)

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
        """Hand every sending head to its endpoint (MNI or PNI).  A
        request leaves with its records' links in ``carry`` (its reply
        picks them up); a reply leaves with none left, so freed ids keep
        no links."""
        src_l = src.tolist()
        obj = self.obj
        forward = lane.forward
        sink = self.kernel._mm_sink if forward else self.kernel._pe_sink
        line = lane.wire.to_l
        if len(src_l) < self.vector_min:
            ring, head, k = lane.ring, lane.head, self.k
            for f in src_l:
                i = ring.item(f, head.item(f))
                if forward:
                    self._sync(i)
                    message = obj[i]
                    message.digits = self.dig[i].tolist()
                else:
                    message = self._reply(i)
                if sink(line[f], message):
                    if forward and self.link[i].max() >= 0:
                        self.carry[message.tag] = self.link[i].copy()
                        self.link[i] = -1
                    self._pop(lane, f, self.pk.item(i), cycle)
                    self._release(i)
                else:
                    lane.blocked[f // k] = lane.blocked.item(f // k) + 1
            return
        ids = lane.ring[src, lane.head[src]]
        ids_l = ids.tolist()
        if forward:
            for i in ids[self.stale[ids]].tolist():
                self._sync(i)
            for i, digits in zip(ids_l, self.dig[ids].tolist()):
                obj[i].digits = digits
        else:
            lazy = ids[self.lazy[ids]]
            if lazy.size:
                self._build_replies(lazy)
        accepted = np.array([n for n, (f, i) in enumerate(zip(src_l, ids_l))
                             if sink(line[f], obj[i])], dtype=np.int64)
        packets = self.pk[ids]
        if accepted.size:
            gone = ids[accepted]
            if forward:
                linked = gone[(self.link[gone] >= 0).any(axis=1)]
                for i in linked.tolist():
                    self.carry[self.tag.item(i)] = self.link[i].copy()
                self.link[linked] = -1
            for i in gone.tolist():
                self._release(i)
        self._pop_many(lane, src, packets, accepted, cycle)

    def _pop_many(self, lane: _Lane, src: Any, packets: Any, accepted: Any,
                  cycle: int) -> None:
        """Commit the sending side: pop the accepted heads (``accepted``
        indexes ``src``), occupy their links, count the refused ones."""
        if accepted.size < src.size:
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
        lane.sent[f] += 1
        lane.dirty[f] = True
        lane.tot -= accepted.size

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
        grouped = group[order]
        pos = np.arange(n)
        starts = np.where(np.r_[True, grouped[1:] != grouped[:-1]], pos, 0)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = pos - np.maximum.accumulate(starts)
        return order, rank, int(rank.max()) + 1

    def _serial(self, lane: _Lane, target: _Lane, src: list[int],
                cycle: int) -> None:
        """Offer the heads of the sending queues ``src`` one at a time,
        in row-major order."""
        forward = lane.forward
        offer = self._offer_forward if forward else self._offer_return
        t_sw, t_port = lane.wire.to_l, lane.wire.port_l
        ring, head, dig = lane.ring, lane.head, self.dig
        stage = target.stage
        k = self.k
        for f in src:
            i = ring.item(f, head.item(f))
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
        flagged = self._flagged(target, ids, tq, order)
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

    def _flagged(self, target: _Lane, ids: Any, tq: Any,
                 order: Any) -> Optional[Any]:
        """Requests that may combine, or None if none: the target queue
        holds an uncombined request for the same cell, or an earlier
        offer of this step goes to the same queue with the same cell
        (``order`` sorts the offers stably by target queue).  Cells are
        compared by key (:func:`_cell_key`)."""
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
        busy = np.flatnonzero(target.len[tq])
        if busy.size:
            resident, live = target.residents(tq[busy])
            hit = live & (self.key[resident] == key[busy][:, None])
            if self.pairwise:
                hit &= ~self.comb[resident]
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
            target.dirty[qg] = True
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
            target.grow()
        slots = target.slots
        cap = self.cap
        accepted = np.ones(n, dtype=bool) if cap is None else np.zeros(n, dtype=bool)
        post = np.zeros(n, dtype=np.int64) if target.hist is not None else None
        for r in range(ranks):
            sel = np.flatnonzero(rank == r) if ranks > 1 else np.arange(n)
            q = tq[sel]
            used = target.used[q] + packets[sel]
            if cap is not None:
                fits = used <= cap
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
            target.dirty[q] = True
            target.tot += taken.size
            np.add.at(target.routed, t_sw[taken], 1)
            if target.forward:
                moved = ids[taken]
                self.dig[moved, target.stage] = t_port[taken]
                self.comb[moved] = False  # new slots, not yet combined
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

class _VectorPrograms:
    """Vectorized executor for the machine's built-in ProgramDriver.

    Per-PE state lives in arrays (state category, compute countdown,
    accumulated idle cycles); PE objects are touched only on the cycles
    they actually act, and per-cycle counter updates are single numpy
    operations.  Event processing within a tick walks the acting PEs in
    ascending ``pe_id`` order — a merge of the (sorted, disjoint)
    category lists — so tag assignment and trace-event order match the
    dense kernel's single ascending sweep exactly.

    The ``idle``/``compute`` arrays are authoritative between flushes;
    :meth:`flush` writes them back to the ``_ProgramPE`` objects before
    anything reads per-PE statistics.
    """

    def __init__(self, driver: "ProgramDriver"):
        self.driver = driver
        self.n = -1
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)derive arrays from the PE objects; called at construction
        and whenever PEs were spawned since the last build."""
        if self.n >= 0:
            self.flush()
        pes = self.driver.pes
        self.n = len(pes)
        self.state = np.full(self.n, _FRESH, dtype=np.int8)
        self.compute = np.zeros(self.n, dtype=np.int64)
        self.idle = np.zeros(self.n, dtype=np.int64)
        self.pending: set[int] = set()
        self.ready: set[int] = set()
        self.running = 0
        for pe in pes:
            i = pe.pe_id
            if not pe.running:
                self.state[i] = _DONE
                continue
            self.running += 1
            if pe.waiting_tag is not None:
                self.state[i] = _WAITING
                if pe.pni.completed:
                    self.ready.add(i)
            elif pe.compute_remaining > 0:
                self.state[i] = _COMPUTING
                self.compute[i] = pe.compute_remaining
            elif pe.pending_op is not None:
                self.state[i] = _PENDING
                self.pending.add(i)
            # else: fresh (the default)

    def flush(self) -> None:
        """Write accumulated array counters back to the PE objects."""
        if self.n <= 0:
            return
        pes = self.driver.pes
        dirty = np.flatnonzero(self.idle)
        for i in dirty.tolist():
            pes[i].idle_cycles += int(self.idle[i])
        if dirty.size:
            self.idle[dirty] = 0
        for i in np.flatnonzero(self.state == _COMPUTING).tolist():
            pes[i].compute_remaining = int(self.compute[i])

    def _absorb(self, pe: "_ProgramPE") -> None:
        """Record a PE's post-``_advance`` state into the arrays."""
        i = pe.pe_id
        if not pe.running:
            self.state[i] = _DONE
            self.running -= 1
        elif pe.pending_op is not None:
            self.state[i] = _PENDING
            self.pending.add(i)
        elif pe.compute_remaining > 0:
            self.state[i] = _COMPUTING
            self.compute[i] = pe.compute_remaining
        elif pe.waiting_tag is not None:
            self.state[i] = _WAITING
        else:
            self.state[i] = _FRESH

    def notify_reply(self, pe_id: int) -> None:
        """A reply reached this PE's PNI (called from the kernel's
        delivery path, dense phase 4 — visible to this cycle's tick)."""
        if 0 <= pe_id < self.n and self.state[pe_id] == _WAITING:
            self.ready.add(pe_id)

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if len(self.driver.pes) != self.n:
            self.rebuild()
        if self.running == 0:
            return
        driver = self.driver
        pes = driver.pes
        state0 = self.state.copy()
        # Closed-form counter updates for the non-acting majority.
        comp_mask = state0 == _COMPUTING
        if comp_mask.any():
            self.compute[comp_mask] -= 1
            finished = np.flatnonzero(comp_mask & (self.compute == 0)).tolist()
        else:
            finished = []
        consumed = sorted(self.ready)
        self.ready.clear()
        waiting_idle = state0 == _WAITING
        for i in consumed:
            waiting_idle[i] = False
        self.idle[waiting_idle] += 1
        pending0 = sorted(self.pending)
        fresh0 = np.flatnonzero(state0 == _FRESH).tolist()
        # Acting PEs, in ascending pe_id across categories — the merge
        # reproduces the dense kernel's single ordered sweep (issue
        # order assigns tags; trace events follow the same order).
        for i in heapq.merge(consumed, finished, pending0, fresh0):
            s = state0[i]
            pe = pes[i]
            if s == _WAITING:
                reply = pe.pni.pop_reply()
                assert reply is not None and reply.tag == pe.waiting_tag
                pe.waiting_tag = None
                driver._advance(pe, reply.value, cycle)
                self._absorb(pe)
            elif s == _COMPUTING:
                pe.compute_remaining = 0
                driver._advance(pe, None, cycle)
                self._absorb(pe)
            elif s == _PENDING:
                op = pe.pending_op
                if pe.pni.can_issue(op):
                    tag = pe.pni.issue(op, cycle)
                    pe.pending_op = None
                    pe.waiting_tag = tag
                    pe.ops_issued += 1
                    self.state[i] = _WAITING
                    self.pending.discard(i)
                else:
                    self.idle[i] += 1
            else:  # fresh: prime the generator
                driver._advance(pe, None, cycle)
                self._absorb(pe)

    def done(self) -> bool:
        if len(self.driver.pes) != self.n:
            self.rebuild()
        return self.running == 0

    # -- wake contract (mirrors ProgramDriver's object implementation) --
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if len(self.driver.pes) != self.n:
            self.rebuild()
        if self.running == 0:
            return None
        if self.ready:
            return cycle
        state = self.state
        if bool((state == _FRESH).any()):
            return cycle
        pes = self.driver.pes
        for i in self.pending:
            if pes[i].pni.can_issue(pes[i].pending_op):
                return cycle
        comp = self.compute[state == _COMPUTING]
        if comp.size:
            candidate = cycle + int(comp.min()) - 1
            if candidate <= cycle:
                return cycle
            return candidate
        return None

    def fast_forward(self, delta: int) -> None:
        state = self.state
        idle_mask = (state == _WAITING) | (state == _PENDING)
        self.idle[idle_mask] += delta
        self.compute[state == _COMPUTING] -= delta


class BatchKernel(DenseKernel):
    """Vectorized stage-stepping kernel (``MachineConfig(kernel="batch")``).

    Executes the exact dense cycle — same seven phases, same component
    order — but moves network traffic a stage at a time in each copy's
    :class:`_MessagePlane` and visits only endpoints that can act.  See
    the module docstring for the design; bit-identity with the dense
    kernel is enforced by the differential grid.
    """

    name = "batch"

    def __init__(self, machine: "Ultracomputer") -> None:
        super().__init__(machine)
        self._built = False
        self._states: list[_MessagePlane] = []
        self._vpes: Optional[_VectorPrograms] = None
        # Endpoint active sets: MNIs assembling/serving, MNIs with
        # queued replies, and PNIs with queued requests (the machine's
        # set, which every PNI joins on issue whatever driver issued).
        self._mni_active: set[int] = set()
        self._mni_out: set[int] = set()
        self._pni_out = machine._pni_ready

    # ------------------------------------------------------------------
    def _ensure_state(self) -> None:
        m = self.machine
        if not self._built:
            self._states = [_MessagePlane(net, self) for net in m.networks]
            self._vpes = _VectorPrograms(m.programs)
            self._built = True

    def _flush(self) -> None:
        """Bring the object view up to date (queues, ports, switch and
        PE counters) for readers outside the kernel."""
        if self._vpes is not None:
            self._vpes.flush()
        for state in self._states:
            state.flush()

    def _timeout(self, max_cycles: int) -> RuntimeError:
        self._flush()  # the message counts in-flight traffic
        return super()._timeout(max_cycles)

    # -- endpoint sinks (dense semantics + active-set maintenance) -----
    def _mm_sink(self, mm: int, message: "Message") -> bool:
        if self.machine._mm_sink(mm, message):
            self._mni_active.add(mm)
            return True
        return False

    def _pe_sink(self, pe: int, message: "Message") -> bool:
        accepted = self.machine._pe_sink(pe, message)
        if accepted and self._vpes is not None:
            self._vpes.notify_reply(pe)
        return accepted

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

    def _inject_reply(self, mm: int, message: "Message") -> bool:
        index = self.machine._copy_by_tag[message.tag]
        return self._states[index].inject_reply(mm, message, self.machine.cycle)

    # ------------------------------------------------------------------
    # one executed cycle (dense phase order, array-scheduled)
    # ------------------------------------------------------------------
    def _step(self) -> None:
        m = self.machine
        cycle = m.cycle
        # 1. MNIs complete/start memory accesses.
        if self._mni_active:
            mnis = m.mnis
            active = self._mni_active
            out = self._mni_out
            for i in sorted(active):
                mni = mnis[i]
                mni.tick(cycle)
                if mni.outbound:
                    out.add(i)
                if mni._in_service is None and not mni._inbound:
                    active.discard(i)
        # 2. requests move one hop toward memory.
        for state in self._states:
            state.step_forward(cycle)
        # 3. PNIs inject queued requests into stage 0.
        if self._pni_out:
            self._inject_heads(cycle)
        # 4. replies move one hop toward the PEs.
        for state in self._states:
            state.step_return(cycle)
        # 5. MNIs inject queued replies into the last stage.
        if self._mni_out:
            mnis = m.mnis
            inject = self._inject_reply
            for i in sorted(self._mni_out):
                mni = mnis[i]
                mni.tick_outbound(cycle, inject)
                if not mni.outbound:
                    self._mni_out.discard(i)
        # 6. drivers consume replies and issue new work.
        for driver in m.drivers:
            if driver is m.programs:
                self._vpes.tick(cycle)
            else:
                driver.tick(cycle)
        # 7. every clock advances.
        for network in m.networks:
            network.advance_cycle()
        m.cycle += 1

    def step(self) -> None:
        """Execute one cycle (public single-step: flushes counters so
        interleaved object reads — ``machine.stats()`` between steps —
        see dense-identical state)."""
        self._ensure_state()
        self._step()
        self._flush()

    # ------------------------------------------------------------------
    # event horizon (the event kernel's logic over the active sets)
    # ------------------------------------------------------------------
    def _maybe_quiescent(self) -> bool:
        """Cheap necessary condition for quiescence; when it holds the
        object view is flushed and the authoritative
        ``machine.quiescent()`` is consulted."""
        if self._mni_active or self._mni_out or self._pni_out:
            return False
        for state in self._states:
            if state.has_messages():
                return False
        m = self.machine
        for driver in m.drivers:
            if not (self._vpes.done() if driver is m.programs else driver.done()):
                return False
        for state in self._states:
            state.flush()
        return True

    def _next_event_cycle(self) -> Optional[int]:
        m = self.machine
        cycle = m.cycle
        for state in self._states:
            if state.has_messages():
                return cycle
        best: Optional[int] = None
        mnis = m.mnis
        for i in self._mni_active | self._mni_out:
            c = mnis[i].next_event_cycle(cycle)
            if c is not None:
                if c <= cycle:
                    return cycle
                if best is None or c < best:
                    best = c
        pnis = m.pnis
        for pe in self._pni_out:
            c = pnis[pe].next_event_cycle(cycle)
            if c is not None:
                if c <= cycle:
                    return cycle
                if best is None or c < best:
                    best = c
        for driver in m.drivers:
            if driver is m.programs:
                c = self._vpes.next_event_cycle(cycle)
            else:
                probe = getattr(driver, "next_event_cycle", None)
                # No wake contract: assumed active every cycle (keeps
                # open-loop stochastic drivers bit-identical).
                c = cycle if probe is None else probe(cycle)
            if c is not None:
                if c <= cycle:
                    return cycle
                if best is None or c < best:
                    best = c
        return best

    def _fast_forward(self, target: int) -> None:
        m = self.machine
        delta = target - m.cycle
        if delta <= 0:
            return
        mnis = m.mnis
        for i in self._mni_active:
            mnis[i].fast_forward(delta)
        for network in m.networks:
            network.fast_forward(delta)
        for driver in m.drivers:
            if driver is m.programs:
                self._vpes.fast_forward(delta)
            else:
                forward = getattr(driver, "fast_forward", None)
                if forward is not None:
                    forward(delta)
        m.cycle = target

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> "RunResult":
        m = self.machine
        self._ensure_state()
        try:
            while not (self._maybe_quiescent() and m.quiescent()):
                if m.cycle >= max_cycles:
                    raise self._timeout(max_cycles)
                nxt = self._next_event_cycle()
                if nxt is None or nxt >= max_cycles:
                    # Dense would spin pure idle-counting cycles up to
                    # the deadline and raise; replicate that exactly.
                    self._fast_forward(max_cycles)
                    raise self._timeout(max_cycles)
                self._fast_forward(nxt)
                self._step()
        finally:
            self._flush()
        return m.stats()

    def run_cycles(self, n: int) -> "RunResult":
        m = self.machine
        self._ensure_state()
        try:
            end = m.cycle + n
            while m.cycle < end:
                nxt = self._next_event_cycle()
                if nxt is None or nxt >= end:
                    self._fast_forward(end)
                    break
                self._fast_forward(nxt)
                self._step()
        finally:
            self._flush()
        return m.stats()
