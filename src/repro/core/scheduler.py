"""Simulation kernels: the pluggable registry and the object kernel.

The Ultracomputer's cycle loop originally ticked every component — every
switch of every network copy, every PNI/MNI, every PE — on every cycle,
even when most of the Omega network was idle.  That is faithful but
wasteful: at low offered load almost all of the work is ticking
components that provably cannot make progress.  This module separates
the *semantics* of a cycle from the *schedule* that executes it.  There
are two kernels:

* :class:`DenseKernel` — the reference kernel, on the component objects.
  It visits only the components that can act in a cycle — the activity
  mask of a SIMD control unit: switches are tracked in per-stage wake
  sets (a switch wakes when it accepts a message and drops out when a
  tick leaves it empty) and walked in ascending index, MNIs are ticked
  only while they hold inbound or in-service work, and PNIs and MNIs
  with nothing queued outbound are skipped.  Skipping is safe because
  ticking an empty component is a no-op by construction.  And it
  **fast-forwards quiet cycles**: when no component can act *now*, the
  kernel asks each stateful component for the earliest future cycle at
  which it could (``next_event_cycle``), jumps straight there, and
  applies the per-cycle counters the skipped cycles would have
  accumulated in closed form (``fast_forward``): waiting PEs gain
  ``idle_cycles``, computing PEs burn ``compute_remaining`` (the program
  driver settles both when read), busy MNIs gain ``busy_cycles``.  The
  paper's PEs run long local computation between shared references, so
  most cycles of a closed-program run are quiet.  The every-component,
  every-cycle loop it replaced is kept as a test-only oracle
  (``tests/eager_kernel.py``) that every kernel is checked against.
  This kernel (and so the oracle) steps the switch objects, so it
  builds them when it is made.
* :class:`~repro.core.batch_kernel.BatchKernel`
  (``MachineConfig(kernel="batch")``) keeps every in-flight message in
  numpy arrays and advances whole stages per vectorized step — the
  1024–4096-PE scaling kernel.  It shares dense's ``run`` and
  ``run_cycles``; only the hooks those call (one cycle, the quiescence
  test, the event horizon, the kernel's share of the skip) are its own.
  It builds no switch object: those are only a one-way view of its
  arrays, which the machine builds on its first public read and the
  kernel writes when read (``sync``).  A message offered through that
  view is refused at the next step.

Every kernel runs every registered topology.  Kernels are *pluggable*:
each registers a factory under its config name via
:func:`register_kernel`, and both ``MachineConfig.validate()`` and the
CLI's ``--kernel`` choices derive from the registry, so new kernels need
no config or CLI changes.  The name ``event`` is registered as an alias
of dense, only because the benchmark's traced kernel table reads
``kernel.event.cycles_per_s`` and normalises by it; the alias goes when
the benchmark stops reading that.

The contract, enforced by ``tests/integration/test_kernel_equivalence.py``
for every registered kernel: for any workload, the kernel produces a
:class:`~repro.core.results.RunResult` whose ``to_dict()`` — cycles,
combines, per-PE finish times and return values, instrumentation
snapshot, cycle trace — is bit-identical to the every-component loop
(the test-only eager oracle).

Driver wake contract (optional; see :class:`repro.core.machine.Driver`),
honoured by both kernels' fast-forward.  Every kernel ticks the same
driver objects in phase 6; none has a private copy of a driver's
state, so the one :class:`~repro.core.machine.ProgramDriver` (which
visits only the PEs that act) runs the PEs everywhere:

``next_event_cycle(cycle) -> Optional[int]``
    The earliest cycle ``>= cycle`` at which ``tick()`` would do
    anything beyond closed-form counter updates; ``None`` when the
    driver is purely waiting on external stimulus (a reply in flight)
    or finished.  Drivers that do not implement the method are treated
    as active every cycle — the kernel then never fast-forwards, which
    keeps open-loop stochastic drivers (whose RNG draws are per-cycle)
    bit-identical.
``fast_forward(delta) -> None``
    Apply the counter updates ``delta`` skipped cycles would have made
    (or defer them to when the counters are read).  Only called when
    the driver's ``next_event_cycle`` reported no activity before
    ``cycle + delta``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .machine import Ultracomputer
    from .results import RunResult

__all__ = [
    "DenseKernel",
    "KERNELS",
    "Kernel",
    "KernelFactory",
    "kernel_names",
    "make_kernel",
    "register_kernel",
]


@runtime_checkable
class Kernel(Protocol):
    """What the machine requires of a simulation kernel.

    A kernel owns the cycle loop of one :class:`Ultracomputer`; the
    machine delegates ``step``/``run``/``run_cycles`` to it.  Any
    registered kernel must be *observationally invisible*: for any
    workload its ``RunResult.to_dict()`` — cycles, combines, per-PE
    stats, instrumentation snapshot, cycle trace — must be bit-identical
    to :class:`DenseKernel`, the reference semantics.  The differential
    grid in ``tests/integration/test_kernel_equivalence.py`` enforces
    this for every kernel in the registry.
    """

    name: str

    def step(self) -> None:
        """Execute exactly one machine cycle."""

    def run(self, max_cycles: int = 1_000_000) -> "RunResult":
        """Run to quiescence (or raise RuntimeError at ``max_cycles``)."""

    def run_cycles(self, n: int) -> "RunResult":
        """Advance exactly ``n`` simulated cycles."""

    def sync(self) -> None:
        """Bring the machine's object view (network, MNI and PE objects)
        up to date; the machine's public readers call it first."""

    def combine_totals(self) -> tuple[int, int]:
        """The machine's combines and decombines so far, read without
        writing the object view back (``Ultracomputer.stats()``)."""


#: A kernel factory receives the fully wired machine and returns a
#: :class:`Kernel` bound to it; factories run at machine construction.
KernelFactory = Callable[["Ultracomputer"], "Kernel"]

#: Kernel registry keyed by the ``MachineConfig.kernel`` string.  Extend
#: it with :func:`register_kernel`; read names with :func:`kernel_names`.
KERNELS: dict[str, KernelFactory] = {}

def register_kernel(name: str, factory: KernelFactory, *, replace: bool = False) -> None:
    """Register a simulation kernel under ``MachineConfig.kernel=name``.

    ``MachineConfig.validate()`` and the CLI's ``--kernel`` choices both
    derive from this registry, so a plugged-in kernel is selectable
    everywhere without touching config or CLI code.  Every kernel runs
    every registered topology.  Re-registering a name is an error unless
    ``replace=True`` (tests use ``replace`` to install instrumented
    stand-ins).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"kernel name must be a non-empty string, got {name!r}")
    if not replace and name in KERNELS:
        raise ValueError(
            f"kernel {name!r} is already registered; pass replace=True to "
            "override it"
        )
    KERNELS[name] = factory


def kernel_names() -> tuple[str, ...]:
    """Registered kernel names, sorted (the valid ``--kernel`` choices)."""
    return tuple(sorted(KERNELS))


class DenseKernel:
    """Reference kernel: execute every cycle in which something can act,
    visiting only the components that can act in it, and fast-forward
    over the quiet cycles between.

    The phase order within a cycle is part of the machine's semantics
    (it realizes the paper's pipelining: an MNI reply injected this
    cycle is seen by the last switch stage this cycle, and so on) and is
    identical in every kernel:

    1. MNIs holding inbound or in-service work complete/start memory
       accesses (ascending MM index);
    2. requests move one hop toward memory (downstream stages first,
       each stage's awake switches in ascending index);
    3. PNIs holding queued requests inject them into stage 0
       (ascending PE index);
    4. replies move one hop toward the PEs (awake switches only);
    5. MNIs holding queued replies inject them into the last stage;
    6. drivers (PEs) consume replies and issue new work;
    7. every clock advances.

    The components skipped in phases 1–5 hold nothing to act on, so the
    outcome is the every-component sweep's, bit for bit.

    :meth:`run` and :meth:`run_cycles` are written once, here, for this
    kernel and the batch kernel; each kernel supplies the hooks they
    call: :meth:`_step` (one cycle), :meth:`_quiescent`,
    :meth:`_next_event_cycle` (its event horizon) and :meth:`_skip`
    (its own components' counters over skipped cycles, in closed form).
    """

    name = "dense"

    def __init__(self, machine: "Ultracomputer") -> None:
        self.machine = machine
        # this kernel steps the switch objects themselves
        for network in machine._networks:
            network.build_switches()

    def sync(self) -> None:
        """Nothing to do: this kernel runs on the objects themselves."""

    def combine_totals(self) -> tuple[int, int]:
        networks = self.machine._networks
        return (sum(n.total_combines() for n in networks),
                sum(n.total_decombines() for n in networks))

    def _ensure_state(self) -> None:
        """Build what the kernel keeps beside the objects (nothing here)."""

    # ------------------------------------------------------------------
    def _step(self) -> None:
        """Execute one cycle, visiting the components that can act."""
        m = self.machine
        cycle = m.cycle
        busy = m._mni_busy
        for mm in sorted(busy):
            if not m._mnis[mm].tick(cycle):
                busy.discard(mm)
        for network in m._networks:
            network.step_forward()
        ready = m._pni_ready
        if ready:
            pnis = m.pnis
            for pe in sorted(ready):
                pni = pnis[pe]
                pni.tick_outbound(cycle, m._inject_request)
                if not pni._queue:
                    ready.discard(pe)
        for network in m._networks:
            network.step_return()
        for mni in m._mnis:
            if mni.outbound:
                mni.tick_outbound(cycle, m._inject_reply)
        for driver in m.drivers:
            driver.tick(cycle)
        for network in m._networks:
            network.advance_cycle()
        m.cycle += 1

    def step(self) -> None:
        """Execute one cycle (a single step never fast-forwards)."""
        self._step()

    # ------------------------------------------------------------------
    # run-loop hooks (the batch kernel supplies its own)
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        """No traffic anywhere and every driver is done."""
        return self.machine.quiescent()

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest cycle at which any component can act; None if no
        component will ever act again without external stimulus.

        Drivers are probed first: one without the wake contract (open-
        loop traffic) is active every cycle and ends the probe at once.
        Then the components that hold work: the networks' awake
        switches, the MNIs in the busy set or holding replies, and the
        PNIs holding requests."""
        m = self.machine
        cycle = m.cycle
        best = self._driver_horizon(cycle, None)
        if best == cycle:
            return cycle
        for network in m._networks:
            if network.has_traffic():
                return cycle  # resident messages try to move every cycle
        busy = m._mni_busy
        for mm, mni in enumerate(m._mnis):
            if mni.outbound or mm in busy:
                c = mni.next_event_cycle(cycle)
                if c is not None:
                    if c <= cycle:
                        return cycle
                    if best is None or c < best:
                        best = c
        return self._pni_horizon(cycle, best)

    def _skip(self, delta: int) -> None:
        """The kernel's share of :meth:`_fast_forward`: MNIs mid-access
        gain ``delta`` busy cycles (only the busy set can hold one)."""
        mnis = self.machine._mnis
        for mm in self.machine._mni_busy:
            mnis[mm].fast_forward(delta)

    # ------------------------------------------------------------------
    # shared by both kernels
    # ------------------------------------------------------------------
    def _pni_horizon(self, cycle: int, best: Optional[int]) -> Optional[int]:
        """``best`` folded with the PNIs holding requests (the machine's
        ready set); ``cycle`` if one can inject now."""
        pnis = self.machine.pnis
        for pe in self.machine._pni_ready:
            c = pnis[pe].next_event_cycle(cycle)
            if c is not None:
                if c <= cycle:
                    return cycle
                if best is None or c < best:
                    best = c
        return best

    def _driver_horizon(self, cycle: int, best: Optional[int]) -> Optional[int]:
        """``best`` folded with the drivers' wake probes; ``cycle`` if
        one can act now.  A driver without the wake contract is assumed
        active every cycle (its tick may draw RNG or issue
        unconditionally), which keeps open-loop stochastic drivers
        bit-identical.  Attached drivers are probed before the
        machine's program driver (``drivers[0]``), so an open-loop
        source ends the probe before the program driver's runs."""
        for driver in reversed(self.machine.drivers):
            probe = getattr(driver, "next_event_cycle", None)
            c = cycle if probe is None else probe(cycle)
            if c is not None:
                if c <= cycle:
                    return cycle
                if best is None or c < best:
                    best = c
        return best

    def _fast_forward(self, target: int) -> None:
        """Jump to ``target``, applying skipped cycles in closed form."""
        m = self.machine
        delta = target - m.cycle
        if delta <= 0:
            return
        self._skip(delta)
        for network in m._networks:
            network.fast_forward(delta)
        for driver in m.drivers:
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
        while not self._quiescent():
            if m.cycle >= max_cycles:
                raise self._timeout(max_cycles)
            nxt = self._next_event_cycle()
            if nxt is None or nxt >= max_cycles:
                # Nothing (relevant) happens before the deadline: an
                # every-cycle loop would spin pure idle-counting cycles
                # up to max_cycles and raise; replicate that exactly.
                self._fast_forward(max_cycles)
                raise self._timeout(max_cycles)
            self._fast_forward(nxt)
            self._step()
        return m.stats()

    def run_cycles(self, n: int) -> "RunResult":
        m = self.machine
        self._ensure_state()
        end = m.cycle + n
        while m.cycle < end:
            nxt = self._next_event_cycle()
            if nxt is None or nxt >= end:
                self._fast_forward(end)
                break
            self._fast_forward(nxt)
            self._step()
        return m.stats()

    # ------------------------------------------------------------------
    def _timeout(self, max_cycles: int) -> RuntimeError:
        """The error of a run that did not quiesce.  It names the oldest
        outstanding request (ties broken by tag), read from the PNIs,
        so no kernel writes its object view back to find it; the op is
        named by kind and cell, which every kernel's view agrees on
        (a combine may rewrite an operand it has not written back)."""
        text = (f"machine did not quiesce within {max_cycles} cycles "
                f"({self._in_flight()} messages in flight)")
        oldest = min((request for pni in self.machine.pnis
                      for request in pni._outstanding_tags.values()),
                     key=lambda request: (request.issued_cycle, request.tag),
                     default=None)
        if oldest is not None:
            text += (f"; oldest outstanding request: PE {oldest.origin}, "
                     f"tag {oldest.tag}, {type(oldest.op).__name__} of MM "
                     f"{oldest.mm} offset {oldest.offset}, issued at cycle "
                     f"{oldest.issued_cycle}")
        return RuntimeError(text)

    def _in_flight(self) -> int:
        """Messages resident in the switch queues of every copy."""
        return sum(n.pending_messages() for n in self.machine._networks)


def make_kernel(name: str, machine: "Ultracomputer") -> "Kernel":
    try:
        factory = KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None
    return factory(machine)


register_kernel(DenseKernel.name, DenseKernel)
# An alias of dense, registered only for the benchmark's traced kernel
# table (``kernel.event.cycles_per_s``, by which it normalises); it goes
# when the benchmark stops reading that metric.
register_kernel("event", DenseKernel)

# Imported last: the batch kernel subclasses DenseKernel.
from .batch_kernel import BatchKernel  # noqa: E402

register_kernel(BatchKernel.name, BatchKernel)
