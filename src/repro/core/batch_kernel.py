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
  hash of its ``(mm, offset)`` cell and its amalgam digits.  ``Message``
  objects are touched only at the endpoints (PNI → stage 0, any stage →
  MNI, MNI → the reply-entry stage, stage 0 → PNI) and on the combining
  path.
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
  queue is preserved bit for bit.
* **Combining on a per-message path.**  A request whose target queue
  holds (or this step received) an uncombined request for the same
  cell, and a reply whose tag has a wait record at its target stage,
  are offered one at a time through the same ``try_combine`` plans,
  ``ReplyRule.materialize`` and ``Message.make_reply`` the switches
  use, against live :class:`~repro.network.wait_buffer.WaitBuffer`
  objects.  Every other message moves in the vectorized step.  A stage
  step with only a few senders (small machines, light load) skips the
  vectorized step's fixed cost and offers all its heads this way.
* **Object view.**  The switch objects remain the reference model for
  the dense and event kernels.  Under this kernel the plane is
  authoritative and :meth:`_MessagePlane.flush` writes queue contents,
  port state and switch counters back at each public boundary, for the
  queues touched since the previous flush only.
* **Active-set endpoints.**  MNIs are visited only while assembling or
  serving (a set maintained at delivery time), PNI/MNI outbound queues
  only while non-empty, and the built-in :class:`ProgramDriver` is run
  through a vectorized shim that keeps per-PE state/compute/idle
  counters in arrays and touches PE objects only on the cycles they act.
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

from ..network.switch import decombine_fits
from ..network.systolic_queue import _Slot
from ..network.wait_buffer import WaitRecord
from .combining import try_combine
from .memory_ops import PACKETS_WITH_DATA, PACKETS_WITHOUT_DATA
from .scheduler import DenseKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message
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
    link ``busy_until`` and peak packets.  ``ins``/``sent``/``routed``/
    ``blocked`` accumulate counter deltas and ``dirty`` marks queues
    changed since the last flush.  ``len`` and ``busy`` are rows of
    per-direction ``(stages, queues)`` arrays, so one mask finds the
    senders of every stage.
    """

    __slots__ = (
        "stage", "forward", "switches", "queues", "ports", "hist",
        "len", "used", "busy", "peak", "head", "ring", "slots", "ins", "sent",
        "dirty", "routed", "blocked", "tot", "wire",
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
        self.sent = np.zeros(n, dtype=np.int32)
        self.dirty = np.zeros(n, dtype=bool)
        self.routed = np.zeros(len(switches), dtype=np.int64)
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
        slots = self.slots
        lengths = self.len[queues]
        pos = np.arange(slots)
        order = (self.head[queues][:, None] + pos) % slots
        rows = np.take_along_axis(self.ring[queues], order, axis=1)
        return rows[pos < lengths[:, None]], lengths


class _MessagePlane:
    """Every message resident in one network copy, in struct-of-arrays
    form, moved a stage at a time (see the module docstring)."""

    #: a stage step with fewer sending heads than this moves them one at
    #: a time: below it the vectorized step's fixed cost is the larger
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
        self.cap = config.queue_capacity_packets
        self.pairwise = config.pairwise_only
        self.combining = config.combining and config.wait_buffer_capacity != 0
        instr = network.instrumentation
        self._instr = instr
        self._instr_on = instr.enabled
        slots = _RING_START
        shape = (self.D, self.S * k)
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
        self.inject_points = [topo.inject_point(pe) for pe in range(topo.n_ports)]
        self.resync()

    # ------------------------------------------------------------------
    # message ids
    # ------------------------------------------------------------------
    def _new_pool(self, size: int) -> None:
        self.obj: list[Optional["Message"]] = [None] * size
        self.pk = np.zeros(size, dtype=np.int64)
        self.key = np.zeros(size, dtype=np.int64)
        self.comb = np.zeros(size, dtype=bool)
        self.wm = np.zeros(size, dtype=np.int64)
        self.dig = np.zeros((size, self.D), dtype=np.int32)
        self._free = list(range(size - 1, -1, -1))

    def _grow_pool(self) -> None:
        size = len(self.obj)
        self.obj.extend([None] * size)
        for name in ("pk", "key", "comb", "wm", "dig"):
            old = getattr(self, name)
            new = np.zeros((2 * size,) + old.shape[1:], dtype=old.dtype)
            new[:size] = old
            setattr(self, name, new)
        self._free.extend(range(2 * size - 1, size - 1, -1))

    def _admit(self, message: "Message", combined: bool = False) -> int:
        """Give ``message`` an id (its entry into the plane)."""
        if not self._free:
            self._grow_pool()
        i = self._free.pop()
        self.obj[i] = message
        self.pk[i] = message.packets
        self.key[i] = hash((message.mm, message.offset))
        self.dig[i] = message.digits
        self.comb[i] = combined
        self.wm[i] = self.rec.get(message.tag, 0) if message.is_reply else 0
        return i

    def _release(self, i: int) -> None:
        self.obj[i] = None
        self._free.append(i)

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
        self._new_pool(max(1024, 2 * sum(map(sum, lengths))))
        # Stage bitmask of the wait records keyed by each tag: a reply
        # takes the per-message path exactly at those stages.
        self.rec: dict[int, int] = {}
        for stage, row in enumerate(self.network.stages):
            for sw in row:
                for wb in sw.wait_buffers:
                    for tag in wb._records:
                        self.rec[tag] = self.rec.get(tag, 0) | (1 << stage)
        for lane, held in zip(lanes, lengths):
            lane.slots = max(lane.slots, max(held))
            lane.ring = np.zeros((len(held), lane.slots), dtype=np.int32)
            lane.len[:] = held
            lane.head[:] = 0
            lane.used[:] = [q.used_packets for q in lane.queues]
            lane.peak[:] = [q.peak_packets for q in lane.queues]
            lane.busy[:] = [p.busy_until for p in lane.ports]
            for arr in (lane.ins, lane.sent, lane.routed, lane.blocked):
                arr[:] = 0
            lane.dirty[:] = False
            lane.tot = sum(held)
            for f in np.flatnonzero(lane.len).tolist():
                for j, slot in enumerate(lane.queues[f]._slots):
                    lane.ring[f, j] = self._admit(slot.message,
                                                  slot.already_combined)

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
        }

    def flush(self) -> None:
        """Write the plane back into the switch objects: contents,
        packet counts and statistics of every queue touched since the
        last flush, its output port, and the switch counters."""
        pairwise = self.pairwise
        obj = self.obj
        for lane in self.fwd + self.ret:
            touched = np.flatnonzero(lane.dirty)
            if touched.size:
                ids, lengths = lane.contents(touched)
                ids_l = ids.tolist()
                combined_l = self.comb[ids].tolist()
                if lane.forward:
                    for i, digits in zip(ids_l, self.dig[ids].tolist()):
                        obj[i].digits = digits
                queues, ports = lane.queues, lane.ports
                start = 0
                for f, n, used, peak, ins, busy, sent in zip(
                    touched.tolist(), lengths.tolist(),
                    lane.used[touched].tolist(), lane.peak[touched].tolist(),
                    lane.ins[touched].tolist(), lane.busy[touched].tolist(),
                    lane.sent[touched].tolist(),
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
                    if sent:
                        port = ports[f]
                        port.busy_until = busy
                        port.messages_sent += sent
                lane.ins[touched] = 0
                lane.sent[touched] = 0
                lane.dirty[touched] = False
            for counts, field in ((lane.routed, "requests_routed"
                                   if lane.forward else "replies_routed"),
                                  (lane.blocked, "forward_blocked_cycles"
                                   if lane.forward else "return_blocked_cycles")):
                hit = np.flatnonzero(counts)
                if hit.size:
                    switches = lane.switches
                    for i, n in zip(hit.tolist(), counts[hit].tolist()):
                        stats = switches[i].stats
                        setattr(stats, field, getattr(stats, field) + n)
                    counts[hit] = 0

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

    def inject_reply(self, mm: int, message: "Message", cycle: int) -> bool:
        stage, sw_i, mm_port = self.topo.reply_entry(mm, message.origin)
        i = self._admit(message)
        if self._offer_return(self.ret[stage], sw_i, mm_port,
                              message.digits[stage], i, cycle):
            return True
        self._release(i)
        return False

    # ------------------------------------------------------------------
    # one message at a time: endpoints and the combining path (scalar
    # reads go through ``item``, which skips numpy's scalar boxing)
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
        """``Switch.offer_forward`` on the plane: combine with a queued
        partner, or append if the queue has room; refuse otherwise."""
        q = sw_i * self.k + out
        sw = lane.switches[sw_i]
        obj = self.obj
        message = obj[i]
        partner = None
        held = lane.len.item(q)
        if self.combining and held:
            mm, offset = message.mm, message.offset
            row = lane.ring[q].tolist()
            head = lane.head.item(q)
            for j in (row[head:] + row[:head])[:held]:
                queued = obj[j]
                if queued.offset != offset or queued.mm != mm or (
                        self.pairwise and self.comb.item(j)):
                    continue
                if sw.wait_buffers[out].is_full():
                    break  # nowhere to put the decombining record
                plan = try_combine(queued.op, message.op)
                if plan is not None:
                    if decombine_fits(self.cap, lane.stage,
                                      self.dig.item(j, lane.stage),
                                      sw.wait_buffers[out].peek_all(queued.tag),
                                      in_port, plan):
                        partner = (j, plan)
                    break
        packets = message.packets
        if partner is None and self.cap is not None and (
                lane.used.item(q) + packets > self.cap):
            return False
        stage = lane.stage
        self.dig[i, stage] = in_port
        if partner is None:
            self.comb[i] = False  # a new slot, not yet combined here
            self._push(lane, q, i, packets)
            if self._instr_on:
                self._instr.record("enqueue", cycle, tag=message.tag,
                                   pe=message.origin, stage=stage)
        else:
            j, plan = partner
            message.digits = self.dig[i].tolist()
            self._release(i)
            queued = self.obj[j]
            before = queued.packets
            queued.replace_op(plan.forward)
            queued.combine_depth = max(queued.combine_depth,
                                       message.combine_depth) + 1
            self.comb[j] = True
            self.pk[j] = queued.packets
            used = lane.used.item(q) + queued.packets - before
            lane.used[q] = used
            if used > lane.peak.item(q):
                lane.peak[q] = used
            lane.queues[q].total_combined += 1
            lane.dirty[q] = True
            sw.wait_buffers[out].insert(WaitRecord(
                key_tag=queued.tag, plan=plan, new_message=message,
                stage=stage, created_cycle=cycle))
            self.rec[queued.tag] = self.rec.get(queued.tag, 0) | (1 << stage)
            sw.stats.combines += 1
            if self._instr_on:
                sw._combine_counter.inc()
                self._instr.record("combine", cycle, tag=message.tag,
                                   pe=message.origin, stage=stage,
                                   tag2=queued.tag)
        lane.routed[sw_i] = lane.routed.item(sw_i) + 1
        return True

    def _offer_return(self, lane: _Lane, sw_i: int, mm_port: int, out: int,
                      i: int, cycle: int) -> bool:
        """``Switch.offer_return`` on the plane: route the reply, and on
        a wait-buffer hit unwind the decombining stack into one reply per
        absorbed partner, all or nothing."""
        k = self.k
        sw = lane.switches[sw_i]
        message = self.obj[i]
        stage = lane.stage
        records = (sw.wait_buffers[mm_port].peek_all(message.tag)
                   if self.wm.item(i) >> stage & 1 else ())
        if not records:
            packets = message.packets
            q = sw_i * k + out
            if self.cap is not None and lane.used.item(q) + packets > self.cap:
                return False
            self._push(lane, q, i, packets)
            lane.routed[sw_i] = lane.routed.item(sw_i) + 1
            return True

        value = message.value
        partner_replies: list["Message"] = []
        for record in reversed(records):
            new_value = record.plan.new_rule.materialize(value)
            partner_replies.append(record.new_message.make_reply(new_value))
            value = record.plan.old_rule.materialize(value)
        old_packets = PACKETS_WITH_DATA if value is not None else PACKETS_WITHOUT_DATA
        if self.cap is not None:
            needed: dict[int, int] = {}
            for reply in partner_replies:
                port = reply.digits[stage]
                needed[port] = needed.get(port, 0) + reply.packets
            needed[out] = needed.get(out, 0) + old_packets
            for port, packets in needed.items():
                if lane.used.item(sw_i * k + port) + packets > self.cap:
                    return False

        sw.wait_buffers[mm_port].match_all(message.tag)
        bits = self.rec.pop(message.tag, 0) & ~(1 << stage)
        if bits:
            self.rec[message.tag] = bits
        message.set_value(value)
        self.pk[i] = message.packets
        for reply in partner_replies:
            self._push(lane, sw_i * k + reply.digits[stage], self._admit(reply),
                       reply.packets)
            sw.stats.decombines += 1
        self._push(lane, sw_i * k + out, i, message.packets)
        lane.routed[sw_i] = lane.routed.item(sw_i) + 1 + len(partner_replies)
        if self._instr_on:
            sw._decombine_counter.inc(len(records))
            for record in records:
                sw._wait_residency.observe(cycle - record.created_cycle)
                self._instr.record("decombine", cycle,
                                   tag=record.new_message.tag,
                                   pe=record.new_message.origin,
                                   stage=stage, tag2=message.tag)
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
        """Hand every sending head to its endpoint (MNI or PNI)."""
        src_l = src.tolist()
        small = len(src_l) < self.vector_min
        if small:
            ring, head = lane.ring, lane.head
            ids = ids_l = [ring.item(f, head.item(f)) for f in src_l]
        else:
            ids = lane.ring[src, lane.head[src]]
            ids_l = ids.tolist()
        obj = self.obj
        if lane.forward:
            sink = self.kernel._mm_sink
            for i, digits in zip(ids_l, self.dig[ids].tolist()):
                obj[i].digits = digits
        else:
            sink = self.kernel._pe_sink
        line = lane.wire.to_l
        ends = [line[f] for f in src_l]
        if small:
            k = self.k
            for f, i, end in zip(src_l, ids_l, ends):
                message = obj[i]
                if sink(end, message):
                    self._pop(lane, f, message.packets, cycle)
                    self._release(i)
                else:
                    lane.blocked[f // k] = lane.blocked.item(f // k) + 1
            return
        accepted = [n for n, (i, end) in enumerate(zip(ids_l, ends))
                    if sink(end, obj[i])]
        packets = self.pk[ids]
        for n in accepted:
            self._release(ids_l[n])
        self._pop_many(lane, src, packets, np.asarray(accepted, dtype=np.int64),
                       cycle)

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
        out = self.dig[ids, target.stage]
        t_sw, t_port = lane.wire.to[src], lane.wire.port[src]
        tq = t_sw * self.k + out
        order, rank, ranks = self._ranks(tq)
        serial = self._serial_mask(lane, target, ids, tq, order)
        if serial is None:
            self._commit(lane, target, src, ids, tq, t_sw, t_port, cycle,
                         rank, ranks)
            return
        if self._instr_on:
            # The trace records every offer in row-major order.
            self._serial(lane, target, src.tolist(), cycle)
            return
        # Offers interact only through their target queue (forward: its
        # slots and wait buffer) or target switch (return: a decombining
        # fan-out reaches every port), so taking the heads in rank order
        # within those groups is the row-major outcome; within a rank
        # the plain heads move vectorized and the rest one at a time.
        if not lane.forward:
            _, rank, ranks = self._ranks(t_sw)
        for r in range(ranks):
            phase = rank == r
            plain = np.flatnonzero(phase & ~serial)
            if plain.size:
                self._commit(lane, target, src[plain], ids[plain], tq[plain],
                             t_sw[plain], t_port[plain], cycle)
            self._serial(lane, target, src[phase & serial].tolist(), cycle)

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

    def _serial_mask(self, lane: _Lane, target: _Lane, ids: Any, tq: Any,
                     order: Any) -> Optional[Any]:
        """Heads that must take the per-message path, or None if none.

        A request needs it when its target queue holds an uncombined
        request for the same cell or an earlier head of this step goes
        to the same queue with the same cell (``order`` sorts the heads
        stably by target queue); a reply needs it when its tag has a
        wait record at the target stage.  Cells are compared by a hash
        of ``(mm, offset)``: a collision only sends a head down the
        exact per-message path."""
        if not lane.forward:
            if not self.rec:
                return None
            serial = (self.wm[ids] >> target.stage) & 1 != 0
            return serial if serial.any() else None
        if not self.combining:
            return None
        key = self.key[ids]
        serial = np.zeros(ids.size, dtype=bool)
        by_queue, by_key = tq[order], key[order]
        # A queue has at most k senders, so an earlier one with the same
        # cell sits fewer than k places before in the sorted order.
        for d in range(1, min(self.k, ids.size)):
            same = (by_queue[d:] == by_queue[:-d]) & (by_key[d:] == by_key[:-d])
            serial[order[d:][same]] = True
        held = target.len[tq]
        busy = np.flatnonzero(held)
        if busy.size:
            q = tq[busy]
            slots = target.slots
            pos = np.arange(slots)
            resident = target.ring[q[:, None],
                                   (target.head[q][:, None] + pos) % slots]
            hit = ((pos < held[busy][:, None])
                   & (self.key[resident] == key[busy][:, None]))
            if self.pairwise:
                hit &= ~self.comb[resident]
            serial[busy] |= hit.any(axis=1)
        return serial if serial.any() else None

    def _serial(self, lane: _Lane, target: _Lane, src: list[int],
                cycle: int) -> None:
        """Offer the heads of the sending queues ``src`` one at a time,
        in row-major order."""
        forward = lane.forward
        offer = self._offer_forward if forward else self._offer_return
        t_sw, t_port = lane.wire.to_l, lane.wire.port_l
        ring, head, dig, obj = lane.ring, lane.head, self.dig, self.obj
        stage = target.stage
        k = self.k
        for f in src:
            i = ring.item(f, head.item(f))
            message = obj[i]
            packets = message.packets
            if offer(target, t_sw[f], t_port[f], dig.item(i, stage), i, cycle):
                if not forward:
                    packets = message.packets  # decombining rewrites it
                self._pop(lane, f, packets, cycle)
            else:
                lane.blocked[f // k] = lane.blocked.item(f // k) + 1

    def _commit(self, lane: _Lane, target: _Lane, src: Any, ids: Any, tq: Any,
                t_sw: Any, t_port: Any, cycle: int, rank: Any = None,
                ranks: int = 1) -> None:
        """Vectorized offers of heads that neither combine nor decombine.

        Offers to one queue are taken in rank order (``rank`` = position
        among this step's offers to that queue, row-major; None when the
        target queues are distinct), each against the capacity left by
        the ranks before it — the greedy check
        ``Switch.offer_forward``/``offer_return`` make in offer order."""
        n = src.size
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
            if lane.forward:
                moved = ids[taken]
                self.dig[moved, target.stage] = t_port[taken]
                self.comb[moved] = False  # new slots, not yet combined
            if self._instr_on:
                self._record_appends(target, ids[taken], post, taken, cycle)
        self._pop_many(lane, src, packets, taken, cycle)

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

    def __init__(self, kernel: "BatchKernel", driver: "ProgramDriver"):
        self.kernel = kernel
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
                    self.kernel._pni_out.add(i)
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
        self._solo = True
        # Endpoint active sets: MNIs assembling/serving, MNIs with
        # queued replies, PNIs with queued requests (solo mode only).
        self._mni_active: set[int] = set()
        self._mni_out: set[int] = set()
        self._pni_out: set[int] = set()

    # ------------------------------------------------------------------
    def _ensure_state(self) -> None:
        m = self.machine
        if not self._built:
            self._states = [_MessagePlane(net, self) for net in m.networks]
            self._vpes = _VectorPrograms(self, m.programs)
            self._built = True
        # Solo mode: the built-in ProgramDriver is the only driver, so
        # the kernel sees every PNI issue and can keep a precise
        # outbound set.  Custom drivers touch PNIs behind the kernel's
        # back; then phase 3 falls back to scanning (still skipping
        # empty PNIs, which is the event kernel's exact behavior).
        self._solo = len(m.drivers) == 1 and m.drivers[0] is m.programs

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

    def _inject_request(self, pe: int, message: "Message") -> bool:
        m = self.machine
        index = m._copy_by_tag.get(message.tag)
        if index is None:
            m._copy_for_request(message)
            index = m._copy_by_tag[message.tag]
        return self._states[index].inject_request(pe, message, m.cycle)

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
        if self._solo:
            if self._pni_out:
                pnis = m.pnis
                inject = self._inject_request
                for pe in sorted(self._pni_out):
                    pni = pnis[pe]
                    pni.tick_outbound(cycle, inject)
                    if not pni.outbound:
                        self._pni_out.discard(pe)
        else:
            inject = self._inject_request
            for pni in m.pnis:
                if pni.outbound:
                    pni.tick_outbound(cycle, inject)
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
        if self._mni_active or self._mni_out:
            return False
        for state in self._states:
            if state.has_messages():
                return False
        if self._solo:
            if self._pni_out:
                return False
            if not self._vpes.done():
                return False
        elif not all(driver.done() for driver in self.machine.drivers):
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
        if self._solo:
            pnis = m.pnis
            for pe in self._pni_out:
                c = pnis[pe].next_event_cycle(cycle)
                if c is not None:
                    if c <= cycle:
                        return cycle
                    if best is None or c < best:
                        best = c
        else:
            for pni in m.pnis:
                if pni.outbound:
                    c = pni.next_event_cycle(cycle)
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
