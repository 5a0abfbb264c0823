"""The eager kernel: the every-component cycle loop, kept as an oracle.

:class:`~repro.core.scheduler.DenseKernel` visits only the components
that can act in a cycle (the awake switches of each stage, the PNIs and
MNIs holding outbound traffic) and fast-forwards over quiet cycles.
Before that, it ticked every component every cycle; that loop is kept
here verbatim as :class:`EagerKernel`, the reference every kernel is
checked against.  It is not registered with the machine: :func:`eager_kernel` registers it for the length of a
``with`` block, so the registry the CLI and ``MachineConfig`` see stays
``batch``/``dense``/``event``.

Import it from tests as ``from eager_kernel import eager_kernel`` (the
suite puts ``tests/`` on ``sys.path``; so does the benchmarks' run).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.results import RunResult
from repro.core.scheduler import KERNELS, DenseKernel, register_kernel
from repro.network.multistage import MultistageNetwork

#: the config name the oracle is registered under
EAGER = "eager"


def step_forward_every_switch(network: MultistageNetwork) -> None:
    """Every switch of every stage ticks its ToMM side (downstream
    stages first, ascending index within a stage)."""
    if network.mm_sink is None:
        raise RuntimeError("network endpoints not connected")
    for stage in range(network.topology.stages - 1, -1, -1):
        for switch in network.stages[stage]:
            switch.tick_forward(network.cycle, network._deliver_forward)


def step_return_every_switch(network: MultistageNetwork) -> None:
    """Every switch of every stage ticks its ToPE side (PE-side stages
    first)."""
    if network.pe_sink is None:
        raise RuntimeError("network endpoints not connected")
    for stage in range(network.topology.stages):
        for switch in network.stages[stage]:
            switch.tick_return(network.cycle, network._deliver_return)


class EagerKernel(DenseKernel):
    """Tick every component every cycle, whatever it holds, and never
    fast-forward: :meth:`run` and :meth:`run_cycles` execute every
    cycle, so the kernels' quiet-cycle skip is checked against it too."""

    name = EAGER

    def step(self) -> None:
        m = self.machine
        cycle = m.cycle
        for mni in m._mnis:
            mni.tick(cycle)
        for network in m._networks:
            step_forward_every_switch(network)
        for pni in m.pnis:
            pni.tick_outbound(cycle, m._inject_request)
        for network in m._networks:
            step_return_every_switch(network)
        for mni in m._mnis:
            mni.tick_outbound(cycle, m._inject_reply)
        for driver in m.drivers:
            driver.tick(cycle)
        for network in m._networks:
            network.advance_cycle()
        m.cycle += 1

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        m = self.machine
        while not m.quiescent():
            if m.cycle >= max_cycles:
                raise self._timeout(max_cycles)
            self.step()
        return m.stats()

    def run_cycles(self, n: int) -> RunResult:
        for _ in range(n):
            self.step()
        return self.machine.stats()


@contextmanager
def eager_kernel() -> Iterator[str]:
    """Register :class:`EagerKernel` for the block; yields its name."""
    register_kernel(EAGER, EagerKernel)
    try:
        yield EAGER
    finally:
        del KERNELS[EAGER]
