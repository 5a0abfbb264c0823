"""Cache-integrated program PEs: the PNI's fourth function (section 3.4).

The plain :class:`~repro.core.machine.ProgramDriver` sends every memory
reference across the network.  This driver interposes the section 3.2
write-back cache: reads hit locally when possible, writes are absorbed
and written back on eviction or flush, and programs can issue the
``release``/``flush`` commands the paper specifies.

Coherence discipline (faithful to sections 3.2/3.4):

* cacheable segments hold private data (and read-only shared data);
* read-modify-write operations (fetch-and-add and friends) always go to
  the MNI — the cached copy, if any, is invalidated (written back first
  when dirty) so the module stays the single point of truth;
* ``yield CacheControl("flush"|"release", segment)`` runs the explicit
  commands; write-backs travel as ordinary store messages.

The driver deliberately does NOT make cached shared read-write data
coherent — the paper prohibits that configuration, and the tests
demonstrate the stale-read hazard it would create.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.machine import Ultracomputer
from ..core.memory_ops import Load, Op, Store
from ..core.paracomputer import Program, ProgramFactory
from ..memory.cache import Segment, WriteBackCache
from ..network.interfaces import PNI


@dataclass(frozen=True, slots=True)
class CacheControl:
    """A cache command a program can yield (costs one cycle)."""

    action: str  # "flush" or "release"
    segment: Optional[str] = None


@dataclass(slots=True)
class _CachedPE:
    pe_id: int
    program: Program
    cache: WriteBackCache
    pni: Optional[PNI] = None  # bound once at spawn; hot-path alias
    running: bool = True
    compute_remaining: int = 0
    waiting_tag: Optional[int] = None
    waiting_fill_address: Optional[int] = None
    resume_value_ready: bool = False
    resume_value: Any = None
    pending: Optional[object] = None  # Op or CacheControl awaiting issue
    write_backlog: deque = field(default_factory=deque)  # pending Store ops
    return_value: Any = None
    # statistics
    cache_hits: int = 0
    network_refs: int = 0
    idle_cycles: int = 0


class CachedProgramDriver:
    """Runs coroutine programs behind per-PE write-back caches.

    Parameters
    ----------
    machine:
        The Ultracomputer whose PNIs carry the miss/write-back traffic.
    cache_lines:
        Capacity of each PE's cache in (one-word) lines.
    segments:
        Shared segment table applied to every PE's cache; addresses
        outside any segment default to cacheable (private convention).
    """

    def __init__(
        self,
        machine: Ultracomputer,
        *,
        cache_lines: int = 64,
        segments: Optional[list[Segment]] = None,
    ) -> None:
        self.machine = machine
        self.cache_lines = cache_lines
        self.segments = segments or []
        self.pes: list[_CachedPE] = []

    def spawn(self, program_fn: ProgramFactory, *args: Any, **kwargs: Any) -> int:
        pe_id = len(self.pes)
        if pe_id >= self.machine.config.n_pes:
            raise ValueError(f"machine has only {self.machine.config.n_pes} PEs")

        def _unused_read(address: int) -> int:  # pragma: no cover - guard
            raise AssertionError(
                "cached PE must satisfy misses via the network, not the "
                "synchronous backing"
            )

        backlog: deque = deque()
        instrumentation = self.machine.instrumentation
        cache = WriteBackCache(
            self.cache_lines,
            1,
            _unused_read,
            lambda address, value: backlog.append(Store(address, value)),
            instrumentation=instrumentation,
            labels={"pe": pe_id} if instrumentation.enabled else None,
        )
        for segment in self.segments:
            cache.add_segment(segment)
        pe = _CachedPE(
            pe_id=pe_id,
            program=program_fn(pe_id, *args, **kwargs),
            cache=cache,
            pni=self.machine.pnis[pe_id],
            write_backlog=backlog,
        )
        self.pes.append(pe)
        return pe_id

    def spawn_many(
        self, n: int, program_fn: ProgramFactory, *args: Any, **kwargs: Any
    ) -> list[int]:
        return [self.spawn(program_fn, *args, **kwargs) for _ in range(n)]

    # ------------------------------------------------------------------
    def _advance(self, pe: _CachedPE, sent: Any, cycle: int) -> None:
        try:
            yielded = pe.program.send(sent)
        except StopIteration as stop:
            pe.running = False
            pe.return_value = stop.value
            return
        if yielded is None:
            pe.compute_remaining = 1
        elif isinstance(yielded, int):
            if yielded <= 0:
                raise ValueError(f"PE {pe.pe_id} yielded non-positive delay")
            pe.compute_remaining = yielded
        elif isinstance(yielded, (Op, CacheControl)):
            pe.pending = yielded
        else:
            raise TypeError(
                f"PE {pe.pe_id} yielded {yielded!r}; cached programs may "
                "yield an Op, CacheControl, None, or a positive delay"
            )

    def _drain_backlog(self, pe: _CachedPE, cycle: int) -> None:
        """Send queued write-backs through the PNI (fire-and-forget)."""
        pni = pe.pni
        while pe.write_backlog:
            op = pe.write_backlog[0]
            if not pni.can_issue(op):
                return
            pni.issue(op, cycle)
            pe.network_refs += 1
            pe.write_backlog.popleft()

    def _collect_acks(self, pe: _CachedPE) -> None:
        """Consume store acknowledgements; capture the one awaited fill."""
        pni = pe.pni
        while True:
            reply = pni.pop_reply()
            if reply is None:
                return
            if pe.waiting_tag is not None and reply.tag == pe.waiting_tag:
                pe.waiting_tag = None
                pe.resume_value = reply.value
                pe.resume_value_ready = True
            # other replies are write-back / invalidation acks: dropped

    def _handle_op(self, pe: _CachedPE, op: Op, cycle: int) -> bool:
        """Try to perform one memory op; True when the PE may proceed."""
        pni = pe.pni
        cache = pe.cache
        if isinstance(op, Load):
            hit, value = cache.probe(op.address)
            if hit:
                pe.cache_hits += 1
                self._advance(pe, value, cycle)
                return True
            if not pni.can_issue(op):
                return False
            pe.waiting_tag = pni.issue(op, cycle)
            pe.waiting_fill_address = (
                op.address if cache.is_cacheable(op.address) else None
            )
            pe.network_refs += 1
            return True
        if isinstance(op, Store):
            # write-allocate into the cache when the address is cacheable
            if cache.is_cacheable(op.address):
                for victim_address, victim_value in cache.install(
                    op.address, op.value, dirty=True
                ):
                    pe.write_backlog.append(Store(victim_address, victim_value))
                self._drain_backlog(pe, cycle)
                self._advance(pe, None, cycle)
                return True
            if not pni.can_issue(op):
                return False
            pni.issue(op, cycle)  # uncacheable: write-through, no stall
            pe.network_refs += 1
            self._advance(pe, None, cycle)
            return True
        # read-modify-write: invalidate any cached copy, then hit the MNI
        write_back = cache.invalidate(op.address)
        if write_back is not None:
            pe.write_backlog.append(Store(write_back[0], write_back[1]))
            self._drain_backlog(pe, cycle)
            if pe.write_backlog:
                # could not send the write-back yet; retry before the RMW
                pe.pending = op
                return False
        if not pni.can_issue(op):
            return False
        pe.waiting_tag = pni.issue(op, cycle)
        pe.waiting_fill_address = None
        pe.network_refs += 1
        return True

    def _handle_control(self, pe: _CachedPE, control: CacheControl, cycle: int) -> None:
        if control.action == "flush":
            pe.cache.flush(control.segment)
        elif control.action == "release":
            pe.cache.release(control.segment)
        else:
            raise ValueError(f"unknown cache control {control.action!r}")
        self._drain_backlog(pe, cycle)
        self._advance(pe, None, cycle)

    def tick(self, cycle: int) -> None:
        for pe in self.pes:
            if not pe.running:
                self._drain_backlog(pe, cycle)
                continue
            self._collect_acks(pe)
            self._drain_backlog(pe, cycle)
            if pe.waiting_tag is not None:
                pe.idle_cycles += 1
                continue
            if pe.resume_value_ready:
                pe.resume_value_ready = False
                value = pe.resume_value
                if pe.waiting_fill_address is not None:
                    for victim_address, victim_value in pe.cache.install(
                        pe.waiting_fill_address, value
                    ):
                        pe.write_backlog.append(
                            Store(victim_address, victim_value)
                        )
                    pe.waiting_fill_address = None
                self._advance(pe, value, cycle)
                continue
            if pe.compute_remaining > 0:
                pe.compute_remaining -= 1
                if pe.compute_remaining == 0:
                    self._advance(pe, None, cycle)
                continue
            if pe.pending is not None:
                pending = pe.pending
                pe.pending = None
                if isinstance(pending, CacheControl):
                    self._handle_control(pe, pending, cycle)
                elif not self._handle_op(pe, pending, cycle):
                    pe.pending = pending  # retry next cycle
                    pe.idle_cycles += 1
                continue
            self._advance(pe, None, cycle)

    def done(self) -> bool:
        return all(
            not pe.running and not pe.write_backlog for pe in self.pes
        )

    # ------------------------------------------------------------------
    # wake contract (the kernels' quiet-cycle fast-forward)
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle at which :meth:`tick` does more than bump
        per-cycle counters; ``None`` when every PE waits on a reply.

        A PE holding a deferred ``pending`` op is reported active *now*
        even though its retry may fail again — the dense kernel retries
        (and counts an idle cycle) every cycle, and a blocked op implies
        traffic in flight, so those cycles execute anyway.
        """
        best: Optional[int] = None
        for pe in self.pes:
            pni = pe.pni
            if pni.completed:
                return cycle
            if pe.write_backlog and pni.can_issue(pe.write_backlog[0]):
                return cycle
            if not pe.running:
                continue
            if pe.waiting_tag is not None:
                continue  # woken externally by the reply
            if pe.resume_value_ready:
                return cycle
            if pe.compute_remaining > 0:
                candidate = cycle + pe.compute_remaining - 1
                if candidate <= cycle:
                    return cycle
                if best is None or candidate < best:
                    best = candidate
                continue
            return cycle  # pending retry, or the program's next advance
        return best

    def fast_forward(self, delta: int) -> None:
        """Counters ``delta`` skipped ticks would have accumulated."""
        for pe in self.pes:
            if not pe.running:
                continue
            if pe.waiting_tag is not None:
                pe.idle_cycles += delta
            elif pe.compute_remaining > 0:
                pe.compute_remaining -= delta

    # -- statistics ------------------------------------------------------
    @property
    def return_values(self) -> dict[int, Any]:
        return {pe.pe_id: pe.return_value for pe in self.pes if not pe.running}

    @property
    def total_network_refs(self) -> int:
        return sum(pe.network_refs for pe in self.pes)

    @property
    def total_cache_hits(self) -> int:
        return sum(pe.cache_hits for pe in self.pes)
