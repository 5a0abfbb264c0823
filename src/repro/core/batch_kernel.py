"""The batch kernel: struct-of-arrays stage stepping for 1024–4096 PEs.

The paper's design point is a 4096-PE machine behind a 12-stage Omega
network — roughly 25k switches, 100k queues.  The dense kernel ticks
every one of them every cycle and the event kernel still pays per-object
Python costs for each awake component; neither reaches that scale.  This
kernel gets there by splitting each cycle into a *schedule* computed on
numpy arrays and a *per-message* part executed on the ordinary switch
objects:

* **Struct-of-arrays schedule.**  For every (direction, stage) the
  kernel mirrors the only two facts that decide whether a (switch, port)
  can transmit — queue length and output-link ``busy_until`` — into
  ``(switches_per_stage, k)`` arrays.  One vectorized mask per stage
  (``qlen > 0 & busy <= cycle``) finds every transmitting port; its
  ``flatnonzero`` order is row-major (switch ascending, port ascending),
  exactly the dense kernel's nested sweep, so offer order — who wins the
  last slot of a filling queue, which trace event lands first — is
  preserved bit for bit.
* **Object-level message semantics.**  Each scheduled head is then moved
  through the *same* ``Switch.offer_forward`` / ``offer_return`` calls
  the dense kernel uses, so combining, decombining, wait-buffer records,
  instrumentation counters, and trace events are identical by
  construction rather than by re-implementation.  Combining matches
  themselves are found through the keyed-address index inside
  :class:`~repro.network.systolic_queue.CombiningQueue` (one dict hit
  per (stage, queue) instead of a linear scan).
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
sweeps the differential grid over all three kernels.

Requires numpy (the optional ``repro[batch]`` extra); constructing the
kernel without it raises an actionable error, while the kernel *name*
stays registered so config validation and CLI listings never need the
import.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Optional

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


class _CopyState:
    """Array mirror of one network copy's schedulable state.

    Holds, per (direction, stage), the queue-length and link-busy
    arrays, the per-stage resident-message totals, and the static wiring
    tables (flattened to ``switch * k + port`` so the hot loop indexes
    plain Python lists).  The wiring between consecutive stages is the
    same perfect shuffle everywhere, so one table serves all stages.
    """

    def __init__(self, np_mod: Any, network: "MultistageNetwork", kernel: "BatchKernel"):
        self._np = np_mod
        self.network = network
        self.kernel = kernel
        topo = network.topology
        self.k = topo.k
        self.D = topo.stages
        self.S = topo.switches_per_stage
        self.rows = network.stages
        np = np_mod
        shape = (self.S, self.k)
        self.fwd_len = [np.zeros(shape, dtype=np.int32) for _ in range(self.D)]
        self.fwd_busy = [np.zeros(shape, dtype=np.int64) for _ in range(self.D)]
        self.ret_len = [np.zeros(shape, dtype=np.int32) for _ in range(self.D)]
        self.ret_busy = [np.zeros(shape, dtype=np.int64) for _ in range(self.D)]
        self.fwd_tot = [0] * self.D
        self.ret_tot = [0] * self.D
        # Static wiring, flat-indexed by f = switch * k + port:
        # PE -> (stage-0 switch, in_port) for injections;
        # stage s output f -> (stage s+1 switch, in_port) forward;
        # stage s output f -> (stage s-1 switch, mm_port) return;
        # stage 0 output f -> PE line for reply delivery.
        self.entry = [topo.stage_input(pe) for pe in range(topo.n_ports)]
        self.fwd_next = [topo.stage_input(f) for f in range(topo.n_ports)]
        self.ret_prev = [
            divmod(topo.unshuffle(f), self.k) for f in range(topo.n_ports)
        ]
        self.pe_line = [topo.unshuffle(f) for f in range(topo.n_ports)]
        self.resync()

    # ------------------------------------------------------------------
    # array <-> object reconciliation
    # ------------------------------------------------------------------
    def resync(self) -> None:
        """Rebuild every array from the switch objects (the objects are
        authoritative; the arrays are a mirror).  Used at construction
        and by the round-trip property tests."""
        for stage in range(self.D):
            fl, fb = self.fwd_len[stage], self.fwd_busy[stage]
            rl, rb = self.ret_len[stage], self.ret_busy[stage]
            for sw in self.rows[stage]:
                i = sw.index
                for p in range(self.k):
                    fl[i, p] = len(sw.to_mm[p]._slots)
                    fb[i, p] = sw.mm_ports[p].busy_until
                    rl[i, p] = len(sw.to_pe[p]._slots)
                    rb[i, p] = sw.pe_ports[p].busy_until
            self.fwd_tot[stage] = int(fl.sum())
            self.ret_tot[stage] = int(rl.sum())

    def export_state(self) -> dict[str, Any]:
        """Copy of the mirrored arrays (round-trip tests compare this
        against a freshly resynced mirror)."""
        return {
            "fwd_len": [a.copy() for a in self.fwd_len],
            "fwd_busy": [a.copy() for a in self.fwd_busy],
            "ret_len": [a.copy() for a in self.ret_len],
            "ret_busy": [a.copy() for a in self.ret_busy],
            "fwd_tot": list(self.fwd_tot),
            "ret_tot": list(self.ret_tot),
        }

    def has_messages(self) -> bool:
        return any(self.fwd_tot) or any(self.ret_tot)

    # ------------------------------------------------------------------
    # injections (PNI -> stage 0, MNI -> stage D-1)
    # ------------------------------------------------------------------
    def inject_request(self, pe: int, message: "Message", cycle: int) -> bool:
        sw_i, in_port = self.entry[pe]
        sw = self.rows[0][sw_i]
        out_digit = message.digits[0]
        combines_before = sw.stats.combines
        if sw.offer_forward(in_port, message, cycle):
            if sw.stats.combines == combines_before:
                self.fwd_len[0][sw_i, out_digit] += 1
                self.fwd_tot[0] += 1
            return True
        return False

    def inject_reply(self, mm: int, message: "Message", cycle: int) -> bool:
        last = self.D - 1
        sw_i, mm_port = divmod(mm, self.k)
        sw = self.rows[last][sw_i]
        to_pe = sw.to_pe
        before = [len(q._slots) for q in to_pe]
        if sw.offer_return(mm_port, message, cycle):
            added = 0
            rl = self.ret_len[last]
            for j in range(self.k):
                d = len(to_pe[j]._slots) - before[j]
                if d:
                    rl[sw_i, j] += d
                    added += d
            self.ret_tot[last] += added
            return True
        return False

    # ------------------------------------------------------------------
    # one hop per resident message, whole stages at a time
    # ------------------------------------------------------------------
    def step_forward(self, cycle: int) -> None:
        """Move requests one hop toward memory (dense phase 2).

        Stages are processed memory side first and the per-stage
        transmit mask is evaluated in row-major (switch, port) order, so
        every offer lands in exactly the dense kernel's sequence."""
        np = self._np
        k = self.k
        kernel = self.kernel
        fwd_next = self.fwd_next
        last = self.D - 1
        for stage in range(last, -1, -1):
            if self.fwd_tot[stage] == 0:
                continue
            qlen = self.fwd_len[stage]
            busy = self.fwd_busy[stage]
            flat = np.flatnonzero((qlen.ravel() != 0) & (busy.ravel() <= cycle))
            if flat.size == 0:
                continue
            row = self.rows[stage]
            at_last = stage == last
            if not at_last:
                next_row = self.rows[stage + 1]
                nlen = self.fwd_len[stage + 1]
                next_digit = stage + 1
            for f in flat.tolist():
                sw_i, port = divmod(f, k)
                sw = row[sw_i]
                queue = sw.to_mm[port]
                head = queue._slots[0].message
                if at_last:
                    accepted = kernel._mm_sink(f, head)
                else:
                    t_i, t_port = fwd_next[f]
                    target = next_row[t_i]
                    out_digit = head.digits[next_digit]
                    combines_before = target.stats.combines
                    accepted = target.offer_forward(t_port, head, cycle)
                    if accepted and target.stats.combines == combines_before:
                        nlen[t_i, out_digit] += 1
                        self.fwd_tot[stage + 1] += 1
                if accepted:
                    queue.pop()
                    qlen[sw_i, port] -= 1
                    self.fwd_tot[stage] -= 1
                    until = cycle + head.packets
                    port_obj = sw.mm_ports[port]
                    port_obj.busy_until = until
                    port_obj.messages_sent += 1
                    busy[sw_i, port] = until
                else:
                    sw.stats.forward_blocked_cycles += 1

    def step_return(self, cycle: int) -> None:
        """Move replies one hop toward the PEs (dense phase 4)."""
        np = self._np
        k = self.k
        kernel = self.kernel
        ret_prev = self.ret_prev
        pe_line = self.pe_line
        for stage in range(self.D):
            if self.ret_tot[stage] == 0:
                continue
            qlen = self.ret_len[stage]
            busy = self.ret_busy[stage]
            flat = np.flatnonzero((qlen.ravel() != 0) & (busy.ravel() <= cycle))
            if flat.size == 0:
                continue
            row = self.rows[stage]
            at_first = stage == 0
            if not at_first:
                prev_row = self.rows[stage - 1]
                plen = self.ret_len[stage - 1]
            for f in flat.tolist():
                sw_i, port = divmod(f, k)
                sw = row[sw_i]
                queue = sw.to_pe[port]
                head = queue._slots[0].message
                if at_first:
                    accepted = kernel._pe_sink(pe_line[f], head)
                else:
                    p_i, mm_port = ret_prev[f]
                    target = prev_row[p_i]
                    to_pe = target.to_pe
                    before = [len(q._slots) for q in to_pe]
                    accepted = target.offer_return(mm_port, head, cycle)
                    if accepted:
                        added = 0
                        for j in range(k):
                            d = len(to_pe[j]._slots) - before[j]
                            if d:
                                plen[p_i, j] += d
                                added += d
                        self.ret_tot[stage - 1] += added
                if accepted:
                    queue.pop()
                    qlen[sw_i, port] -= 1
                    self.ret_tot[stage] -= 1
                    until = cycle + head.packets
                    port_obj = sw.pe_ports[port]
                    port_obj.busy_until = until
                    port_obj.messages_sent += 1
                    busy[sw_i, port] = until
                else:
                    sw.stats.return_blocked_cycles += 1


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

    def __init__(self, kernel: "BatchKernel", driver: "ProgramDriver", np_mod: Any):
        self.kernel = kernel
        self.driver = driver
        self._np = np_mod
        self.n = -1
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)derive arrays from the PE objects; called at construction
        and whenever PEs were spawned since the last build."""
        if self.n >= 0:
            self.flush()
        np = self._np
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
        np = self._np
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
        np = self._np
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
    order — but schedules each phase from numpy mirrors of the
    schedulable state and visits only components that can act.  See the
    module docstring for the design; bit-identity with the dense kernel
    is enforced by the differential grid.
    """

    name = "batch"

    def __init__(self, machine: "Ultracomputer") -> None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is a test dep here
            raise RuntimeError(
                "kernel 'batch' requires numpy; install the optional extra "
                "(pip install 'repro[batch]') or use kernel='dense'/'event'"
            ) from None
        super().__init__(machine)
        self._np = numpy
        self._built = False
        self._states: list[_CopyState] = []
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
            self._states = [_CopyState(self._np, net, self) for net in m.networks]
            self._vpes = _VectorPrograms(self, m.programs, self._np)
            self._built = True
        # Solo mode: the built-in ProgramDriver is the only driver, so
        # the kernel sees every PNI issue and can keep a precise
        # outbound set.  Custom drivers touch PNIs behind the kernel's
        # back; then phase 3 falls back to scanning (still skipping
        # empty PNIs, which is the event kernel's exact behavior).
        self._solo = len(m.drivers) == 1 and m.drivers[0] is m.programs

    def _flush(self) -> None:
        if self._vpes is not None:
            self._vpes.flush()

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
        authoritative ``machine.quiescent()`` is consulted."""
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
