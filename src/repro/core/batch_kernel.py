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
  network's stage-delay counters.  A request's op is its kind and
  operand columns when the kind is vectorized, else the op a
  per-message combine rewrote it to, else its PNI row's op at its
  offset (:meth:`_MessagePlane._op`); a reply's value is its
  ``val``/``vst`` columns, or a plain per-id store when it is not exact
  in int64.  A ``Message`` or ``WaitRecord`` is built only when the
  object view is written back (:meth:`_MessagePlane._messages` is the
  one builder); a reply reaches its PNI as a tag and a value.
* **Rows at the PE boundary.**  A PNI records each request as a row of
  plain values (``interfaces.Request``: tag, PE, module, offset, the op
  as issued, issue cycle), and the plane admits a batch of those rows
  by columns, keeping each id's row beside its arrays: the route digits
  come from the topology's interned tuples (or, on a fabric whose
  routes depend on the destination alone, from a per-geometry table),
  and no Message or physical op is made.  On the way out an exit batch
  is one application of the delivery rule (``interfaces.deliver_replies``),
  which completes the PNIs' rows and builds no record, and the exits
  release their ids without a Python statement per id.
* **Wiring from the topology.**  Each lane's per-queue tables (target
  kind, next switch and port, endpoint line) come from the targets
  :class:`~repro.network.multistage.MultistageNetwork` resolved at
  build, and injections go through the topology's ``inject_point`` and
  ``reply_entry``, so every registered fabric runs here.  The tables
  and the injection points are memoised per geometry, beside the
  resolved wiring.  A stage whose
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
  endpoints stage by stage in the dense order.  Any other step walks
  the stages in the dense order: a stage's heads are gathered and
  offered, and offers to one
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
  by array operations: the operand is scatter-added and the record
  appended.  On the way back a reply whose tag has such a record at its
  target stage decombines in one vectorized commit — Y for R-old, Y+e
  (or Y, or an acknowledgement) for R-new, all or nothing against the
  target switch's ToPE capacity — and R-new's id leaves as its reply.
  This covers the paper's pairwise switch
  (``pairwise_only``) with operands and values that stay exact in
  int64 (:data:`_EXACT`).  Mixed kinds, other phis, the
  unlimited-combining ablation and stage steps with few senders take
  the per-message path: the same ``try_combine`` plans and
  ``ReplyRule.materialize`` the switches use, on the ids' ops and
  values, against the same record store.  ``decombine_fits``, given
  each record's arrival port and plan, is the combine-refusal rule on
  both paths.
* **The memory side on arrays.**  The MNIs are :class:`_MemorySide`:
  per memory module an inbound ring (with ready cycles and packets,
  checked against ``mni_inbound_capacity_packets``), the request in
  service and its done cycle, an outbound ring and its link's
  ``busy_until``, shared by the network copies as (copy, id) pairs.  A
  request keeps its plane id at the memory side and turns into its
  reply in place, so its wait-record links stay on the id.  Phase 1
  finds the modules that complete or start a service by array masks
  and applies the completions in ascending-MM order: a Load, Store or
  F&A of a vectorized kind straight to its module's storage from the
  columns, any other through ``MemoryModule.apply``; phase 5 offers
  every free-link head reply as one batch per copy, as phase 3 does for
  the PNIs.  While fewer than
  ``vector_min`` MNIs hold work, both visit those MNIs one at a time.
* **Instrumented runs on the same path.**  Each instrumentation test
  here guards a probe.  The trace is the one record whose order
  matters: each event an offer makes is held (``CycleTrace.hold``)
  under its offer's place in dense's visit order — the sending queue,
  the PE or the MM — until the stage step or phase ends.
* **A one-way object view, built when read.**  The switch and MNI
  objects remain the reference model for the dense kernel.  Under this
  kernel the arrays are authoritative and the objects are only a view
  of them, written and never read back.  The kernel builds no switch:
  the machine builds the rows on the first public read (``networks``,
  ``network``, ``mnis``, ``quiescent()``), instrumented or not, since
  the network registers the per-stage instruments itself and the
  instrumented probes here use those handles.  The planes and the
  memory side start empty at the first step, from the config, the
  topology, the resolved wiring and the instruments.
  :meth:`BatchKernel.sync` writes the arrays back — queue contents
  (Messages built afresh from the ids' rows and columns), port state,
  wait buffers, switch counters and MNIs, for what was touched since the
  previous write only (the first write carries every change since
  cycle 0 onto the fresh objects) — when a cycle has run since then
  and a public reader looks.  ``step()`` itself writes nothing back;
  the kernel reads the machine's private lists.  ``stats()`` writes
  nothing back either: it reads the combine and decombine totals as
  the switch counters plus the planes' pending deltas.  A message
  offered through the view, to a switch or an MNI, would never reach
  the arrays, so the next step refuses it (it marks the network's wake
  sets or the machine's busy MNIs, which this kernel never fills).
* **Active-set endpoints.**  PNIs are visited only while they hold
  requests: an issue adds its PE to a set the machine shares with the
  kernel, whatever driver issued, and phase 3 removes each PNI it
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

from ..network.interfaces import Request, deliver_replies, physical_op
from ..network.message import Message, packets_for
from ..network.multistage import wiring_key
from ..network.switch import decombine_fits
from ..network.systolic_queue import _Slot
from ..network.wait_buffer import WaitRecord
from .combining import Combined, try_combine
from .memory_ops import (PACKETS_WITH_DATA, PACKETS_WITHOUT_DATA, FetchAdd, Load,
                         Op, Store)
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

#: the offset bits of an exact cell key (:func:`_request_fields`)
_OFFSET = (1 << 32) - 1

#: per-id arrays of a plane's message pool: (name, dtype, fill)
_POOL = (
    ("pk", np.int64, 0), ("key", np.int64, 0), ("comb", bool, 0),
    ("tag", np.int64, 0), ("depth", np.int64, 0),
    # a request's kind and operand (its op when the kind is vectorized)
    ("vk", np.int8, 0), ("opnd", np.int64, 0),
    # replies: the value when it is exact in int64 (``vst`` 1), None
    # (``vst`` 0) or in the plane's ``wide`` store (``vst`` 2)
    ("val", np.int64, 0), ("vst", np.int8, 0),
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
    # kept only with a trace: a request's origin PE, and the order key
    # its latest offer's events are held under (``CycleTrace.hold``)
    ("org", np.int64, 0), ("okey", np.int64, 0),
)


def _request_fields(mm: int, offset: int, op: Any) -> tuple[int, int, int]:
    """``(key, kind, operand)`` of a request for cell (``mm``,
    ``offset``).  The key is what its cell is searched by: exact
    (``mm``, then a 32-bit ``offset``) when the offset fits, else a
    hash — equal cells always share a key, and a collision only costs a
    closer look.  The kind and operand are for the vectorized paths
    (combining, decombining, the memory access) — kind 0 (per-message
    path only) unless it is a plain F&A, Load or Store whose operand
    and offset fit the arrays (so requests of one kind with equal keys
    address one cell, and ``key & _OFFSET`` is the offset)."""
    if type(offset) is not int or not 0 <= offset < 1 << 32:
        return hash((mm, offset)), 0, 0
    key = mm << 32 | offset
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
    The tables are shared by every plane of one geometry
    (:func:`_plane_wiring`), so their arrays are read-only.
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
        for table in (self.kinds, self.to, self.port):
            table.setflags(write=False)


#: per geometry (:func:`~repro.network.multistage.wiring_key`), the
#: planes' wiring; see :func:`_plane_wiring`
_PLANE_WIRING: dict[tuple, tuple] = {}


def _plane_wiring(network: "MultistageNetwork") -> tuple:
    """``(forward, return, inject_points, inject_sw, inject_port,
    routes)`` of the network's geometry, memoised for the process as its
    resolved wiring is: each lane's :class:`_Wiring` by direction and
    stage (stages wired alike share one), each PE's stage-0 switch and
    port as a list of pairs and as two read-only arrays, and, on a
    fabric whose routes depend on the destination alone (it has a
    ``route_table``), each destination's route digits as a read-only
    row (else None)."""
    topo = network.topology
    key = wiring_key(topo)
    tables = _PLANE_WIRING.get(key)
    if tables is None:
        wires: dict[int, _Wiring] = {}
        for targets in network.forward_targets + network.return_targets:
            if id(targets) not in wires:
                wires[id(targets)] = _Wiring(targets)
        points = [topo.inject_point(pe) for pe in range(topo.n_ports)]
        inject_sw, inject_port = (np.array(column, dtype=np.int64)
                                  for column in zip(*points))
        inject_sw.setflags(write=False)
        inject_port.setflags(write=False)
        returns = [wires[id(targets)] for targets in network.return_targets]
        assert not any(_END in w.kinds and _HOP in w.kinds for w in returns), (
            "a return lane both exits and hops (the trace order: _move)")
        routes = getattr(topo, "route_table", None)
        if routes is not None:
            routes = np.array(routes(), dtype=np.int32)
            routes.setflags(write=False)
        tables = _PLANE_WIRING[key] = (
            [wires[id(targets)] for targets in network.forward_targets],
            returns, points, inject_sw, inject_port, routes)
    return tables


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

    def __init__(self, forward: bool, switches: int, wires: list) -> None:
        stages = len(wires)
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
        self.lanes = [_Lane(self, s, wire) for s, wire in enumerate(wires)]

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
    return lane; ``wire`` says where its output leads.  ``switches``,
    ``queues`` and ``ports`` are the
    stage's objects, looked up by :meth:`bind` once the object view
    exists (None before), for the write-back only.  ``ring[f]``
    holds its message ids, oldest at ``head[f]``; ``len``/``used``/
    ``busy``/``peak`` mirror the queue's length, used packets, output
    link ``busy_until`` and peak packets.  ``ins``/``combs``/
    ``routed``/``merged``/``blocked`` accumulate counter deltas
    (``merged`` counts a forward lane's combines and a return lane's
    decombines) and ``base`` is each queue's length at the last flush,
    so ``base + ins - len`` messages were sent since; a queue changed
    since the last flush is one that inserted, combined or sent.  The
    queues share the occupancy histogram ``hist`` (None uninstrumented).
    """

    __slots__ = (
        "grid", "stage", "at", "forward", "switches", "queues", "ports",
        "len", "used", "busy", "peak", "head", "ring", "slots", "ins", "combs",
        "base", "routed", "merged", "blocked", "wire", "hist",
    )

    def __init__(self, grid: _Grid, stage: int, wire: _Wiring) -> None:
        self.grid = grid
        self.stage = stage
        self.at = stage * grid.len.shape[1]  # flat index of queue 0
        self.forward = grid.forward
        self.switches = self.queues = self.ports = None
        for name in ("len", "used", "busy", "peak", "head", "ins", "combs",
                     "base", "routed", "merged", "blocked"):
            setattr(self, name, getattr(grid, name)[stage])
        self.ring = grid.ring[stage]
        self.slots = grid.slots
        self.wire = wire
        self.hist = None

    def bind(self, switches: list) -> None:
        """Look up the stage's switch objects, and their queues and
        output ports of this direction."""
        forward = self.forward
        self.switches = switches
        self.queues = [q for sw in switches
                       for q in (sw.to_mm if forward else sw.to_pe)]
        self.ports = [p for sw in switches
                      for p in (sw.mm_ports if forward else sw.pe_ports)]

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
        if self.hist is not None:
            self.hist.observe_many(used)


class _MessagePlane:
    """Every message resident in one network copy, in struct-of-arrays
    form, moved a direction per pass (see the module docstring).

    It is built, empty, from the network's config, topology, resolved
    wiring and per-stage instruments alone, when the machine first
    steps; the switch objects are looked up only to write them back
    (:meth:`flush`), once they exist."""

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
        topo = network.topology
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
        #: per stage, the instruments the switches of the stage share
        #: (None uninstrumented)
        self.instruments = network.stage_instruments
        #: the trace (None when none is kept)
        self._trace = kernel._trace
        #: whether combining and decombining may take the vectorized path
        self.vector = self.combining and self.pairwise
        (fwd_wires, ret_wires, self.inject_points, self.inject_sw,
         self.inject_port, self.routes) = _plane_wiring(network)
        #: a request's interned route tuple, by (destination, source)
        self.route = topo.route_tuple
        self.fwd_grid = _Grid(True, self.S, fwd_wires)
        self.ret_grid = _Grid(False, self.S, ret_wires)
        self.fwd = self.fwd_grid.lanes
        self.ret = self.ret_grid.lanes
        for lane in self.fwd + self.ret if self.instruments is not None else ():
            shared = self.instruments[lane.stage]
            lane.hist = shared.queue_to_mm if lane.forward else shared.queue_to_pe
        # the wait buffers, flat index ``stage * Q + switch * k + port``
        cells = self.D * self.Q
        self.wb_occ = np.zeros(cells, dtype=np.int32)
        self.wb_peak = np.zeros(cells, dtype=np.int32)
        self.wb_ins = np.zeros(cells, dtype=np.int32)
        self.wb_dirty = np.zeros(cells, dtype=bool)
        self._new_pool(1024)
        self._seq = 0
        # The wait-buffer objects, by the same index, once bound
        # (:meth:`_bind`).
        self.wbs: Optional[list] = None
        # Whether a homogeneous pair of each vectorized kind may combine
        # (indexed [kind, R-old and R-new arrived on the same port]):
        # decombine_fits evaluated once per case.
        self.fits = np.ones((4, 2), dtype=bool)
        for kind in (_FA, _LOAD, _STORE):
            op = _op_of(kind, 0, 1)
            plan = try_combine(op, op)
            for same in (0, 1):
                self.fits[kind, same] = decombine_fits(
                    self.cap, 0, (), 1 - same, plan)

    # ------------------------------------------------------------------
    # message ids
    # ------------------------------------------------------------------
    def _new_pool(self, size: int) -> None:
        #: per id, the request's row (``interfaces.Request``) as its PNI
        #: issued it
        self.rows: list[Optional["Request"]] = [None] * size
        #: by id, the op a per-message combine rewrote a request of no
        #: vectorized kind to (see :meth:`_op`)
        self.ops: dict[int, "Op"] = {}
        #: by id, a reply value not exact in int64 (``vst`` 2)
        self.wide: dict[int, int] = {}
        self.w_plan: list[Optional[Combined]] = [None] * size
        for name, dtype, fill in _POOL:
            setattr(self, name, np.full(size, fill, dtype=dtype))
        self.dig = np.zeros((size, self.D), dtype=np.int32)
        # link[i, s]: the most recent wait record keyed by i's tag at
        # stage s (-1: none)
        self.link = np.full((size, self.D), -1, dtype=np.int32)
        self._free = list(range(size - 1, -1, -1))

    def _grow_pool(self) -> None:
        size = len(self.rows)
        self.rows.extend([None] * size)
        self.w_plan.extend([None] * size)
        for name, dtype, fill in _POOL + (("dig", np.int32, 0),
                                          ("link", np.int32, -1)):
            old = getattr(self, name)
            new = np.full((2 * size,) + old.shape[1:], fill, dtype=dtype)
            new[:size] = old
            setattr(self, name, new)
        self._free.extend(range(2 * size - 1, size - 1, -1))

    def _admit(self, row: "Request") -> int:
        """Give the request ``row`` an id (its entry into the plane).  A
        free id has no links, rewritten op or wide value (see
        :meth:`_exit_replies`)."""
        if not self._free:
            self._grow_pool()
        i = self._free.pop()
        tag, pe, mm, offset, op, _ = row
        self.rows[i] = row
        self.pk[i] = op.request_packets
        self.dig[i] = self.route(mm, pe)
        self.tag[i] = tag
        self.comb[i] = False
        self.key[i], self.vk[i], self.opnd[i] = _request_fields(mm, offset, op)
        self.depth[i] = 0
        return i

    def _admit_many(self, rows: list["Request"]) -> Any:
        """:meth:`_admit` for a batch of requests, one array write per
        field.  Their digits are read from the topology's interned route
        tuples; no digit list is made.  The fields are streamed into
        their arrays, so no tracked object per request outlives its own
        conversion (a batch of thousands of live tuples would set off
        young collections, and those promote the requests in flight
        toward full ones)."""
        n = len(rows)
        while len(self._free) < n:
            self._grow_pool()
        ids_l = self._free[-n:]
        del self._free[-n:]
        _consume(map(self.rows.__setitem__, ids_l, rows))
        tags, pes, mms, offsets, ops, _ = zip(*rows)
        ids = np.array(ids_l, dtype=np.int64)
        self.pk[ids] = [op.request_packets for op in ops]
        self.tag[ids] = tags
        self.depth[ids] = 0
        fields = np.fromiter(
            itertools.chain.from_iterable(map(_request_fields, mms, offsets, ops)),
            dtype=np.int64, count=3 * n).reshape(n, 3)
        self.key[ids], self.vk[ids], self.opnd[ids] = fields.T
        self.dig[ids] = (list(map(self.route, mms, pes)) if self.routes is None
                         else self.routes[list(mms)])
        self.comb[ids] = False
        return ids

    def _release(self, i: int) -> None:
        self.rows[i] = None
        if self.ops:
            self.ops.pop(i, None)
        self._free.append(i)

    def _op(self, i: int) -> "Op":
        """The op request ``i`` carries now: from its kind and operand
        (which a vectorized combine rewrites) when the kind is
        vectorized, else the op a per-message combine rewrote it to, else
        the op its PE issued, at its offset.  A reply's is its request's
        op at its memory access."""
        kind = self.vk.item(i)
        if kind:
            return _op_of(kind, self.rows[i].offset, self.opnd.item(i))
        op = self.ops.get(i)
        if op is None:
            _, _, _, offset, op, _ = self.rows[i]
            op = physical_op(op, offset)
        return op

    def _value(self, i: int) -> Optional[int]:
        """The value reply ``i`` carries."""
        status = self.vst.item(i)
        return (self.val.item(i) if status == 1 else None if status == 0
                else self.wide[i])

    def _set_value(self, i: int, value: Optional[int]) -> None:
        """Make ``value`` the value reply ``i`` carries (its memory
        access or a decombine), with its packet count."""
        if self.wide:
            self.wide.pop(i, None)
        if value is None:
            self.vst[i] = 0
        elif type(value) is int and -_EXACT < value < _EXACT:
            self.vst[i] = 1
            self.val[i] = value
        else:
            self.vst[i] = 2
            self.wide[i] = value
        self.pk[i] = packets_for(value is not None)

    def _turn_one(self, i: int, value: Optional[int]) -> None:
        """:meth:`_turn` for one request (also a partner's reply that a
        per-message decombine makes of R-new's id)."""
        self._set_value(i, value)
        self.comb[i] = False

    def _turn(self, ids: Any, values: list[Optional[int]]) -> None:
        """Turn the requests ``ids``, served at their memory modules,
        into their replies carrying ``values``, keeping each id (and so
        its wait-record links)."""
        status = [0 if v is None else 1 if type(v) is int and -_EXACT < v < _EXACT
                  else 2 for v in values]
        vst = np.array(status, dtype=np.int8)
        self.vst[ids] = vst
        self.val[ids] = [v if st == 1 else 0 for v, st in zip(values, status)]
        self.pk[ids] = np.where(vst == 0, PACKETS_WITHOUT_DATA, PACKETS_WITH_DATA)
        self.comb[ids] = False  # a return queue's slots are never combined
        wide = vst == 2
        if wide.any():
            self.wide.update(zip(ids[wide].tolist(),
                                 (v for v, st in zip(values, status) if st == 2)))

    def _messages(self, ids: Any, reply: bool) -> list["Message"]:
        """The object view's Messages of ``ids``, built from each id's
        row and columns: its request as it stands (op, digits, latest
        enqueue cycle) or, with ``reply``, the reply its memory access
        made of it (what ``Message.make_reply`` makes, with its value)."""
        rows, op, value = self.rows, self._op, self._value
        messages = []
        for i, digits, depth, enqueued in zip(
            ids.tolist(), self.dig[ids].tolist(), self.depth[ids].tolist(),
            self.enq[ids].tolist(),
        ):
            tag, pe, mm, offset, _, cycle = rows[i]
            message = Message(op=op(i), mm=mm, offset=offset, origin=pe, tag=tag,
                              digits=digits, is_reply=reply,
                              value=value(i) if reply else None,
                              combine_depth=depth, issued_cycle=cycle)
            if not reply:
                message.enqueued_cycle = enqueued
            messages.append(message)
        return messages

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
        """The combine plan of record ``r`` (a vectorized record's R-new
        has the record's kind, and its op is frozen at the combine)."""
        kind = self.w_kind.item(r)
        if not kind:
            return self.w_plan[r]
        offset = self.rows[r].offset
        return try_combine(_op_of(kind, offset, self.w_dat.item(r)),
                           _op_of(kind, offset, self.opnd.item(r)))

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
        if self.instruments is not None:
            self.instruments[stage].wait_occupancy.observe(occupancy)

    # ------------------------------------------------------------------
    # object view
    # ------------------------------------------------------------------
    def _bind(self) -> None:
        """Bind the lanes and wait buffers to the switch objects (the
        machine builds them before the first write-back)."""
        if self.wbs is None:
            rows = self.network.stages
            for lane in self.fwd + self.ret:
                lane.bind(rows[lane.stage])
            self.wbs = [wb for row in rows for sw in row
                        for wb in sw.wait_buffers]

    def flush(self) -> None:
        """Write the plane back into the switch objects: contents,
        packet counts and statistics of every queue touched since the
        last flush, its output port, the wait buffers touched since then,
        and the switch counters.  A first flush writes every change
        since cycle 0 (``base`` is zero and the deltas have accumulated
        since), so switches built just before it end up as an eager
        build would hold them."""
        self._bind()
        pairwise = self.pairwise
        for lane in self.fwd + self.ret:
            # only a combining queue keeps a key index (a ToPE queue or
            # a ToMM queue of a non-combining network is never searched)
            indexed = lane.queues[0].combining
            sends = lane.base + lane.ins - lane.len
            touched = np.flatnonzero((lane.ins != 0) | (lane.combs != 0)
                                     | (sends != 0))
            if touched.size:
                ids, lengths = lane.contents(touched)
                messages = self._messages(ids, not lane.forward)
                # a return queue's slots are never combined (a decombined
                # R-new may still carry the mark of its forward trip)
                combined_l = (self.comb[ids].tolist() if lane.forward
                              else [False] * ids.size)
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
                            for m, combined in zip(messages[start:end],
                                                   combined_l[start:end]):
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
                            slots = deque(map(_Slot, messages[start:end],
                                              combined_l[start:end]))
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
        for r, at, tag, made, message in zip(
            records.tolist(), self.w_at[records].tolist(),
            self.w_tag[records].tolist(), self.w_made[records].tolist(),
            self._messages(records, False),
        ):
            record = WaitRecord(key_tag=tag, plan=self._plan(r),
                                new_message=message, stage=at // self.Q,
                                created_cycle=made)
            keyed = held.setdefault(at, {})
            if tag in keyed:
                keyed[tag].append(record)
            else:
                keyed[tag] = [record]
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
    def inject_request(self, pe: int, row: "Request", cycle: int) -> bool:
        sw_i, in_port = self.inject_points[pe]
        i = self._admit(row)
        if self._trace is not None:
            self.org[i] = self.okey[i] = pe
        if self._offer_forward(self.fwd[0], sw_i, in_port, self.dig.item(i, 0),
                               i, cycle):
            return True
        self._release(i)
        return False

    def inject_requests(self, pes: list[int], rows: list["Request"],
                        cycle: int) -> list[bool]:
        """Offer the head request of each PE in ``pes`` (ascending), as
        the rows its PNI issued, to stage 0: as one batch unless there
        are only a few.  A refused request keeps no id (it is admitted
        again when offered again)."""
        if len(pes) < self.vector_min:
            return [self.inject_request(pe, row, cycle)
                    for pe, row in zip(pes, rows)]
        ids = self._admit_many(rows)
        line = np.array(pes, dtype=np.int64)
        if self._trace is not None:
            self.org[ids] = self.okey[ids] = line
        accepted = np.zeros(len(pes), dtype=bool)
        accepted[self._offer(self.fwd[0], ids, self.inject_sw[line],
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
            accepted[sel[self._offer(self.ret[s], ids[sel], sw[sel],
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
        rows = self.rows
        partner = None
        held = lane.len.item(q)
        if self.combining and held and (
                self.wcap is None or self.wb_occ.item(wb) < self.wcap):
            key = self.key.item(i)
            cell = rows[i][2:4]
            ring = lane.ring[q].tolist()
            head = lane.head.item(q)
            for j in (ring[head:] + ring[:head])[:held]:
                if self.key.item(j) != key or (self.pairwise and self.comb.item(j)):
                    continue
                if rows[j][2:4] != cell:
                    continue
                plan = try_combine(self._op(j), self._op(i))
                if plan is not None:
                    if decombine_fits(self.cap, self.dig.item(j, stage),
                                      [(self.dig.item(r, stage), self._plan(r))
                                       for r in reversed(self._chain(j, stage))],
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
        self.enq[i] = cycle  # enqueued or absorbed
        if partner is None:
            self.comb[i] = False  # a new slot, not yet combined here
            self._push(lane, q, i, packets)
            if self._trace is not None:
                self._trace.hold((self.okey.item(i),), "enqueue", cycle,
                                 (self.tag.item(i),), (self.org.item(i),), stage)
        else:
            j, plan = partner
            op = self.ops[j] = plan.forward
            self.depth[j] = max(self.depth.item(j), self.depth.item(i)) + 1
            _, self.vk[j], self.opnd[j] = _request_fields(*cell, op)
            self.comb[j] = True
            before = self.pk.item(j)
            self.pk[j] = op.request_packets
            used = lane.used.item(q) + op.request_packets - before
            lane.used[q] = used
            if used > lane.peak.item(q):
                lane.peak[q] = used
            lane.combs[q] = lane.combs.item(q) + 1
            self._insert_record(i, j, stage, wb, cycle, plan)
            lane.merged[sw_i] = lane.merged.item(sw_i) + 1
            if self.instruments is not None:
                self.instruments[stage].combines.inc()
            if self._trace is not None:
                self._trace.hold((self.okey.item(i),), "combine", cycle,
                                 (self.tag.item(i),), (self.org.item(i),), stage,
                                 (self.tag.item(j),))
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

        chain = self._chain(i, stage)  # most recent first
        value = self._value(i)
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

        if self.instruments is not None:
            instruments = self.instruments[stage]
            instruments.decombines.inc(len(chain))
            for r in chain:
                instruments.wait_residency.observe(cycle - self.w_made.item(r))
        if self._trace is not None:  # oldest record first, as a switch's
            old, n = chain[::-1], len(chain)
            self._trace.hold([self.okey.item(i)] * n, "decombine", cycle,
                             self.tag[old], self.org[old], stage,
                             [self.tag.item(i)] * n)
        self.link[i, stage] = -1
        self._set_value(i, value)
        for r, new_value in partners:
            self._turn_one(r, new_value)
            self.w_at[r] = -1
            self.w_plan[r] = None
            self._push(lane, sw_i * k + self.dig.item(r, stage), r,
                       self.pk.item(r))
        self._push(lane, sw_i * k + out, i, self.pk.item(i))
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
    def _step(self, grid: _Grid, cycle: int) -> None:
        """Send the head of every transmitting queue of a direction
        (dense phase 2 or 4), each message at most one stage: all stages
        in one pass when no offer can combine, decombine or be refused
        (:meth:`_one_pass`), else a stage at a time (:meth:`_staged`).

        One mask serves the whole direction: a stage's queues change
        during a step only through its own pops and through pushes from
        the stage processed after it, so its senders are fixed before
        the step starts."""
        if not grid.tot:
            return
        src = np.flatnonzero((grid.len != 0) & (grid.busy <= cycle))
        if src.size < self.vector_min or not self._one_pass(grid, src, cycle):
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
            if self._trace is not None:
                self._trace.release()

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
            # each offer's packets plus those of the offers ranked
            # before it to its queue
            total = np.cumsum(packets[order])
            offered = total - (total - packets[order])[np.arange(n) - rank]
            if self.cap is not None and (used[grouped] + offered > self.cap).any():
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
        if self.instruments is not None:
            # each push's occupancy after it, by receiving stage
            after, at = used[grouped] + offered, to[order]
            cut, counts = _run_bounds(_runs(at))  # the pushes' stages ascend
            for s, c, m in zip(at[cut].tolist(), cut.tolist(), counts.tolist()):
                grid.lanes[s].hist.observe_many(after[c:c + m])
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
            if self._trace is not None:  # (a return hop records nothing)
                # sorted into the staged order (downstream stages first)
                o = np.argsort(-stage, kind="stable")
                self._trace.hold(range(n), "enqueue", cycle, self.tag[ids[o]],
                                 self.org[ids[o]], to[o])
                self._trace.release()
        return True

    def _move(self, lane: _Lane, target: Optional[_Lane], src: Any,
              cycle: int) -> None:
        """Send the heads of ``src``: endpoint-bound ones leave the
        network, the rest hop into ``target``.  The two groups have
        distinct receivers, and taking them apart keeps the row-major
        trace too: a request's exit to its MNI records no trace event
        (only the MNI's order-free occupancy histogram), and a return
        lane never both exits and hops (:func:`_plane_wiring`), so a
        reply's exit, whose ``PNI.deliver`` records ``reply``, never
        meets a hop's ``decombine`` in one stage step."""
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
        always take them, by tag and value.  A reply leaves with no links
        left, and its freed id keeps no rewritten op or wide value (see
        :meth:`_admit`)."""
        wide = self.wide
        if src.size < self.vector_min:
            ring, head, line = lane.ring, lane.head, lane.wire.to_l
            pes, tags, values = [], [], []
            for f in src.tolist():
                i = ring.item(f, head.item(f))
                status = self.vst.item(i)
                pes.append(line[f])
                tags.append(self.tag.item(i))
                values.append(self.val.item(i) if status == 1 else None
                              if status == 0 else wide.pop(i))
                self._pop(lane, f, self.pk.item(i), cycle)
                self._release(i)
            self.kernel._deliver(pes, tags, values)
            return
        ids = lane.ring[src, lane.head[src]]
        ids_l = ids.tolist()
        status = self.vst[ids]
        self.kernel._deliver(
            lane.wire.to[src].tolist(), self.tag[ids].tolist(),
            [v if st == 1 else None if st == 0 else wide.pop(i) for v, st, i in
             zip(np.where(status == 1, self.val[ids], 0).tolist(),
                 status.tolist(), ids_l)])
        _consume(map(self.rows.__setitem__, ids_l, itertools.repeat(None)))
        if self.ops:
            _consume(map(self.ops.pop, ids_l, itertools.repeat(None)))
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
        if self._trace is not None:
            self.okey[lane.ring[src, lane.head[src]]] = src
        if src.size < self.vector_min:
            self._serial(lane, target, src.tolist(), cycle)
            return
        ids = lane.ring[src, lane.head[src]]
        # a request pops with its packets as sent (read first: a later
        # offer may combine into an earlier head), a decombined reply
        # with its rewritten count, as a switch's queue does
        sent = self.pk[ids] if lane.forward else None
        taken = self._offer(target, ids, lane.wire.to[src], lane.wire.port[src],
                            cycle)
        self._pop_many(lane, src, self.pk[ids] if sent is None else sent, taken,
                       cycle)

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

    def _offer(self, target: _Lane, ids: Any, t_sw: Any, t_port: Any,
               cycle: int) -> Any:
        """Offer messages ``ids`` (in row-major order) to ``target``,
        arriving at switches ``t_sw`` on ports ``t_port``; returns the
        indices of those taken.

        Offers interact only through their target queue (its slots and
        wait buffer), and a reply that decombines through every ToPE
        queue of its switch, so taking them in rank order within target
        queues (within switches, once a reply may decombine) is the
        row-major outcome: each rank settles completely, vectorized,
        before the next meets its heads as residents.  A request that
        may combine (:meth:`_flagged`) goes to :meth:`_combine`, a
        reply with a wait record to :meth:`_decombine`, and what those
        leave to the per-message path."""
        stage = target.stage
        out = self.dig[ids, stage]
        tq = t_sw * self.k + out
        if target.forward:
            order, rank, ranks = self._ranks(tq)
            special = self._flagged(target.grid, ids, target.at + tq, order)
        else:
            records = self.link[ids, stage]
            special = records >= 0
            if not special.any():
                special = None
            _, rank, ranks = self._ranks(tq if special is None else t_sw)
        if special is None:
            return self._append(target, ids, tq, t_sw, t_port, cycle, rank, ranks)
        accepted = np.zeros(ids.size, dtype=bool)
        for r in range(ranks):
            phase = rank == r
            plain = phase & ~special
            pick = np.flatnonzero(phase & special)
            if pick.size and self.vector:
                pick = (self._combine(target, ids, tq, t_sw, t_port, pick, plain,
                                      accepted, cycle) if target.forward else
                        self._decombine(target, ids, records, tq, t_sw, t_port,
                                        pick, accepted, cycle))
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
        by target queue).  Cells are compared by key (:func:`_request_fields`).

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
            self.enq[h] = cycle
            self.w_dat[h] = e[go]
            self.opnd[j] = total[go]
            self.depth[j] = np.maximum(self.depth[j], self.depth[h]) + 1
            self.comb[j] = True
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
            if self.instruments is not None:
                instruments = self.instruments[stage]
                instruments.combines.inc(g.size)
                instruments.wait_occupancy.observe_many(occupancy)
            if self._trace is not None:
                self._trace.hold(self.okey[h], "combine", cycle, self.tag[h],
                                 self.org[h], stage, self.tag[j])
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
            if target.hist is not None:
                target.hist.observe_many(used)
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
                if self._trace is not None:
                    self._trace.hold(self.okey[moved], "enqueue", cycle,
                                     self.tag[moved], self.org[moved], stage)
        return taken

    def _decombine(self, target: _Lane, ids: Any, records: Any, tq: Any,
                   t_sw: Any, t_port: Any, pick: Any, accepted: Any,
                   cycle: int) -> Any:
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
        if self.instruments is not None:
            instruments = self.instruments[stage]
            instruments.decombines.inc(pick.size)
            instruments.wait_residency.observe_many(cycle - self.w_made[r])
        if self._trace is not None:
            self._trace.hold(self.okey[h], "decombine", cycle, self.tag[r],
                             self.org[r], stage, self.tag[h])
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
    a time, in ascending-MM order, instead of masking every MNI.  It
    starts empty when the machine first steps; the MNI objects are the
    object view, written back by :meth:`flush`.
    """

    def __init__(self, kernel: "BatchKernel") -> None:
        m = kernel.machine
        self.machine = m
        self.mnis = m._mnis
        self.modules = [mni.module for mni in self.mnis]
        self.copies = len(m._networks)
        self.planes: list[_MessagePlane] = []
        self.cap = m.config.mni_inbound_capacity_packets
        self._instr_on = m.instrumentation.enabled
        self._trace = kernel._trace
        self.latency = np.array([module.latency for module in self.modules],
                                dtype=np.int64)
        n = len(self.mnis)
        self.inbound = _Rings(n, 3)
        self.outbound = _Rings(n, 1)
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
        self.clock = m.cycle

    def _objects(self, refs: Any, replies: bool) -> list["Message"]:
        """The object view's Messages of ``refs``, requests or replies
        (:meth:`_MessagePlane._messages`)."""
        copies = self.copies
        found: list[Any] = [None] * refs.size
        for copy, plane in enumerate(self.planes):
            sel = np.flatnonzero(refs % copies == copy)
            if sel.size:
                _consume(map(found.__setitem__, sel.tolist(),
                             plane._messages(refs[sel] // copies, replies)))
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

    def _columns(self, refs: Any, names: tuple[str, ...]) -> list[list[int]]:
        """The plane columns ``names`` of the requests ``refs``, as lists."""
        copies, planes = self.copies, self.planes
        if copies == 1:
            return [getattr(planes[0], name)[refs].tolist() for name in names]
        ids, at = np.divmod(refs, copies)
        out = [np.empty(refs.size, dtype=np.int64) for _ in names]
        for copy, plane in enumerate(planes):
            sel = at == copy
            for column, name in zip(out, names):
                column[sel] = getattr(plane, name)[ids[sel]]
        return [column.tolist() for column in out]

    def _access(self, mms: list[int], refs: Any, cycle: int) -> list[Optional[int]]:
        """The memory accesses of the requests ``refs`` at the modules
        ``mms`` (ascending), in that order; returns their replies'
        values.  A Load, Store or F&A of a vectorized kind (its operand
        exact in int64, its offset the low bits of its key) is applied
        to its module's storage straight from the plane's columns, as
        ``MemoryModule.apply`` would; any other goes through
        ``MemoryModule.apply`` with its id's op (:meth:`_MessagePlane._op`)."""
        modules, planes, copies = self.modules, self.planes, self.copies
        trace = self._trace
        names = ("vk", "key", "opnd") if trace is None else (
            "vk", "key", "opnd", "tag")
        columns = self._columns(refs, names)
        values: list[Optional[int]] = []
        for x, (mm, kind, key, operand) in enumerate(zip(mms, *columns[:3])):
            module = modules[mm]
            if kind:
                storage = module.storage
                offset = key & _OFFSET
                if kind == _LOAD:
                    values.append(storage.setdefault(offset, 0))
                elif kind == _FA:
                    old = storage.get(offset, 0)
                    storage[offset] = old + operand
                    values.append(old)
                else:
                    storage[offset] = operand
                    values.append(None)
                if self._instr_on:
                    module._access_counter.inc()
            else:
                ref = refs.item(x)
                op = planes[ref % copies]._op(ref // copies)
                effect = module.apply(op)
                values.append(effect.result if op.expects_value else None)
            module.accesses += 1
            if trace is not None:
                trace.record("mm_serve", cycle, tag=columns[3][x], mm=mm)
        return values

    def _complete_one(self, mm: int, cycle: int) -> None:
        """Apply the request in service at ``mm`` at its module; it
        turns into its reply and queues for the link."""
        ref = self.svc.item(mm)
        plane, i = self.planes[ref % self.copies], ref // self.copies
        (value,) = self._access([mm], self.svc[mm:mm + 1], cycle)
        plane._turn_one(i, value)
        self.outbound.push_one(mm, ref)
        self.served[mm] = self.served.item(mm) + 1
        self.svc[mm] = -1
        self.dirty[mm] = True
        self.replying.add(mm)

    def _complete(self, mms: Any, cycle: int) -> None:
        """:meth:`_complete_one` for every MNI in ``mms`` (ascending):
        the accesses in MM order across the copies (as the trace records
        them), then each copy's replies as one batch."""
        refs = self.svc[mms]
        copies, planes = self.copies, self.planes
        values = self._access(mms.tolist(), refs, cycle)
        if copies == 1:
            planes[0]._turn(refs, values)
        else:
            for copy, plane in enumerate(planes):
                sel = np.flatnonzero(refs % copies == copy)
                if sel.size:
                    plane._turn(refs[sel] // copies,
                                [values[x] for x in sel.tolist()])
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
        different copies do not interact; their trace rows are keyed by
        MM), or one reply at a time when few MNIs hold replies."""
        replying = self.replying
        if not replying:
            return
        out = self.outbound
        copies = self.copies
        planes = self.planes
        if len(replying) < self.vector_min:
            link = self.link
            for mm in sorted(replying):
                if link.item(mm) > cycle:
                    continue
                ref = out.cols[0].item(mm, out.head.item(mm))
                plane, i = planes[ref % copies], ref // copies
                if self._trace is not None:
                    plane.okey[i] = mm
                if plane.inject_reply(i, cycle):
                    out.pop_one(mm)
                    # a reply decombined at its entry leaves with its
                    # rewritten packet count, as the MNI's reply does
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
            if self._trace is not None:
                plane.okey[ids] = mms[sel]
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
        # No switch is built here: the switch objects are only the
        # object view, which the machine builds on its first public read.
        self.machine = machine
        self._built = False
        #: the trace, which holds events back until a stage step or phase
        #: ends (None when none is kept)
        instr = machine.instrumentation
        self._trace = instr.trace if instr.enabled else None
        self._states: list[_MessagePlane] = []
        self._memory: Optional[_MemorySide] = None
        # PNIs with queued requests: the machine's set, which every PNI
        # joins on issue whatever driver issued.
        self._pni_out = machine._pni_ready
        # whether a cycle ran since the object view was last written
        self._unsynced = False

    # ------------------------------------------------------------------
    def _ensure_state(self) -> None:
        """Build the planes and the memory side, empty, at the first
        step (not at construction, which stays cheap); refuse a write
        made through the object view since the last step."""
        if not self._built:
            self._memory = _MemorySide(self)
            self._states = [_MessagePlane(net, self, copy)
                            for copy, net in enumerate(self.machine._networks)]
            self._memory.planes = self._states
            self._built = True
        self._refuse_view_writes()

    def _refuse_view_writes(self) -> None:
        """Raise if a message was offered through the object view.

        The view is written from the arrays and never read back, so
        such a message would be lost.  An offer to a switch marks its
        network's wake sets and an offer to an MNI the machine's busy
        set; this kernel fills neither, and only a public reader, which
        builds the switch rows, hands out the objects to offer to."""
        m = self.machine
        if m._networks[0].stages and (
                m._mni_busy or any(n.has_traffic() for n in m._networks)):
            raise RuntimeError(
                "a message was offered through the object view "
                "(machine.network, networks or mnis); under the batch "
                "kernel that view is written from the kernel's arrays and "
                "never read back: issue requests through the PNIs, or use "
                "kernel='dense'")

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
        """The switch counters (0 while the switches are not built) plus
        the planes' deltas not yet written back."""
        combines, decombines = super().combine_totals()
        for state in self._states:
            combines += int(state.fwd_grid.merged.sum())
            decombines += int(state.ret_grid.merged.sum())
        return combines, decombines

    def _deliver(self, pes: list[int], tags: list[int],
                 values: list[Optional[int]]) -> None:
        """``Ultracomputer._pe_sink`` for replies given by PE, tag and
        value (the PE side always takes them): one application of the
        delivery rule to the whole batch, which completes the PNIs'
        rows and builds no record."""
        m = self.machine
        deliver_replies(list(map(m.pnis.__getitem__, pes)), tags, values,
                        m.cycle)
        if m._copy_by_tag:
            _consume(map(m._copy_by_tag.pop, tags, itertools.repeat(None)))

    def _inject_heads(self, cycle: int) -> None:
        """``PNI.tick_outbound`` for every PNI holding requests: the
        heads whose links are free are collected in ascending-PE order,
        offered, and the accepted ones committed.  Each network copy
        takes its heads as one batched offer (offers to different copies
        do not interact; their trace rows are keyed by PE)."""
        m = self.machine
        pnis = m.pnis
        copy_by_tag = m._copy_by_tag
        healthy = m._healthy_copies
        offers = [([], [], []) for _ in self._states]
        for pe in sorted(self._pni_out):
            pni = pnis[pe]
            if cycle >= pni._link_busy_until:
                head = pni._queue[0]
                if type(head) is not Request:  # a reader built its Message
                    head = pni._outstanding_tags[head.tag]
                tag = head.tag
                # ``Ultracomputer._copy_for_request``'s striping; a
                # request is remembered by copy only if refused (a plane
                # keeps its reply)
                index = copy_by_tag.get(tag)
                if index is None:
                    index = healthy[tag % len(healthy)]
                pes, heads, queued = offers[index]
                pes.append(pe)
                heads.append(head)
                queued.append(pni)
        for index, (state, (pes, heads, queued)) in enumerate(
                zip(self._states, offers)):
            if not pes:
                continue
            taken = state.inject_requests(pes, heads, cycle)
            for pni, head, ok in zip(queued, heads, taken):
                if ok:
                    queue = pni._queue
                    queue.popleft()
                    pni._link_busy_until = cycle + head.op.request_packets
                    if not queue:
                        self._pni_out.discard(pni.pe_id)
                else:
                    copy_by_tag[head.tag] = index

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
            state._step(state.fwd_grid, cycle)
        # 3. PNIs inject queued requests into stage 0.
        trace = self._trace
        if self._pni_out:
            self._inject_heads(cycle)
            if trace is not None:
                trace.release()
        # 4. replies move one hop toward the PEs.
        for state in self._states:
            state._step(state.ret_grid, cycle)
        # 5. MNIs inject queued replies where their requests left.
        self._memory.reply(cycle)
        if trace is not None:
            trace.release()
        # 6. drivers consume replies and issue new work.
        for driver in m.drivers:
            driver.tick(cycle)
        # 7. every clock advances.
        for network in m._networks:
            network.advance_cycle()
        m.cycle += 1
        # a driver may have offered through the view in phase 6
        self._refuse_view_writes()

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

    def _in_flight(self) -> int:
        """Messages resident in the planes, counted without writing the
        object view back (a timeout message should not build it)."""
        return sum(state.fwd_grid.tot + state.ret_grid.tot
                   for state in self._states)

    def _skip(self, delta: int) -> None:
        """The kernel's share of the skip: the memory side's busy counts
        are closed-form in its clock, and the object view goes stale."""
        self._unsynced = True
        self._memory.clock = self.machine.cycle + delta
