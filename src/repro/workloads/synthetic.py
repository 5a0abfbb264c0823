"""Synthetic network traffic (section 4's workload model).

The analytic study assumes "requests are generated at each PE by
independent identically distributed time-invariant random processes" and
"MMs are equally likely to be referenced".  This module provides that
workload — Bernoulli(p) per PE per cycle, uniform destinations — plus
the two deviations the paper discusses:

* **hot-spot traffic** (section 3.1.2 motivation): a fraction of
  requests are fetch-and-adds on one shared cell, the pattern combining
  exists to absorb;
* **strided traffic** (section 3.1.4 motivation): fixed-stride address
  sequences that concentrate on one module unless hashing spreads them.

A driver attaches to an :class:`~repro.core.machine.Ultracomputer` and
implements its ``Driver`` protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..core.machine import Ultracomputer
from ..core.memory_ops import FetchAdd, Load, Op


@dataclass
class TrafficSpec:
    """Shape of a synthetic workload.

    ``rate`` is p, the expected requests per PE per network cycle (must
    stay below the 1/m capacity bound for closed-form comparisons);
    ``pattern`` is ``uniform``, ``hotspot``, ``stride``, or
    ``permutation``; ``hot_fraction`` applies to ``hotspot`` only.
    """

    rate: float
    pattern: str = "uniform"
    hot_fraction: float = 0.2
    hot_address: int = 0
    stride: int = 1
    requests_per_pe: Optional[int] = None
    seed: int = 0


@dataclass
class TrafficStats:
    """Latency/throughput summary of a synthetic run."""

    offered: int
    issued: int
    completed: int
    blocked_attempts: int
    mean_latency: float
    max_latency: int
    latencies: list[int] = field(default_factory=list)

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.issued if self.issued else 0.0


class SyntheticTrafficDriver:
    """Bernoulli(p) open-loop traffic attached to every PE.

    The driver respects the PNI's outstanding-reference rule: an attempt
    that cannot issue (same-location conflict or a full window) is
    counted in ``blocked_attempts`` and dropped, keeping the offered
    process time-invariant as the model assumes.
    """

    def __init__(self, machine: Ultracomputer, spec: TrafficSpec) -> None:
        self.machine = machine
        self.spec = spec
        self._rng = random.Random(spec.seed)
        n = machine.config.n_pes
        self._address_space = n * 64  # modest footprint, uniform over MMs
        self.offered = 0
        self.blocked = 0
        self.latencies: list[int] = []
        self._issued_per_pe = [0] * n
        # Stride traffic models PEs sweeping one column of a row-major
        # matrix from different rows: all cursors are stride-aligned, so
        # with stride = n_modules every reference lands on one module
        # unless hashing intervenes (the section 3.1.4 pathology).
        self._stride_cursor = [pe * spec.stride * 3 for pe in range(n)]

    # ------------------------------------------------------------------
    def _next_op(self, pe: int) -> Op:
        spec = self.spec
        if spec.pattern == "hotspot" and self._rng.random() < spec.hot_fraction:
            return FetchAdd(spec.hot_address, 1)
        if spec.pattern == "stride":
            address = self._stride_cursor[pe] % self._address_space
            self._stride_cursor[pe] += spec.stride
            return Load(address)
        if spec.pattern == "permutation":
            # Fixed one-to-one PE -> MM mapping (bit-reversal-free simple
            # rotation); conflict-free under destination-tag routing.
            n = self.machine.config.n_pes
            address = ((pe + 1) % n) + n * (self._issued_per_pe[pe] % 8)
            return Load(address)
        address = self._rng.randrange(self._address_space)
        return Load(address)

    def tick(self, cycle: int) -> None:
        """Draw every PE's coin (and a firing PE's op right after its
        coin), then issue the firing PEs' requests with one call."""
        spec = self.spec
        rate = spec.rate
        coin = self._rng.random
        next_op = self._next_op
        issued = self._issued_per_pe
        n = len(issued)
        candidates = range(n) if spec.requests_per_pe is None else [
            pe for pe in range(n) if issued[pe] < spec.requests_per_pe]
        # (a firing PE draws its op before the next PE's coin)
        fired = [(pe, next_op(pe)) for pe in candidates if coin() < rate]
        if fired:
            self.offered += len(fired)
            pes, ops = zip(*fired)
            for pe, tag in zip(pes, self.machine.issue_many(pes, ops, cycle)):
                if tag is None:
                    self.blocked += 1
                else:
                    issued[pe] += 1
        self._collect()

    def _collect(self) -> None:
        """Take every reply the PNIs received, in ascending-PE order, and
        keep its round trip (no record is built): the machine's replied
        set names the PNIs that may hold one."""
        replied = self.machine._pni_replied
        if not replied:
            return
        pnis = self.machine.pnis
        keep = self.latencies.append
        for pe in sorted(replied):
            replies = pnis[pe]._replies
            # (tag, op, value, issued cycle, completed cycle), taken one
            # by one: a deque's clear() leaves a spare block behind
            while replies:
                reply = replies.popleft()
                keep(reply[4] - reply[3])
        replied.clear()

    def done(self) -> bool:
        if self.spec.requests_per_pe is None:
            return True  # open loop: the caller decides when to stop
        return all(
            issued >= self.spec.requests_per_pe for issued in self._issued_per_pe
        ) and all(pni.outstanding() == 0 for pni in self.machine.pnis)

    def drain(self, max_cycles: int) -> None:
        """Stop offering (rate 0) and step the machine until no PNI has
        an outstanding request, for at most ``max_cycles`` cycles (the
        bound keeps a saturated run from hanging)."""
        self.spec = replace(self.spec, rate=0.0)
        pnis = self.machine.pnis
        for _ in range(max_cycles):
            if all(pni.outstanding() == 0 for pni in pnis):
                break
            self.machine.step()

    # ------------------------------------------------------------------
    def stats(self) -> TrafficStats:
        self._collect()
        latencies = list(self.latencies)
        issued = sum(p.requests_issued for p in self.machine.pnis)
        completed = sum(p.replies_received for p in self.machine.pnis)
        total_rtt = sum(p.total_round_trip for p in self.machine.pnis)
        return TrafficStats(
            offered=self.offered,
            issued=issued,
            completed=completed,
            blocked_attempts=self.blocked,
            mean_latency=total_rtt / completed if completed else 0.0,
            max_latency=max(latencies, default=0),
            latencies=latencies,
        )


def run_uniform_traffic(
    n_pes: int, rate: float, cycles: int, *, seed: int = 0, **config: Any,
) -> tuple[TrafficStats, Ultracomputer]:
    """The uniform-traffic harness: build a machine of ``n_pes`` PEs
    (``config`` holds any other :class:`~repro.core.machine.MachineConfig`
    fields, which keep its defaults otherwise), offer uniform
    Bernoulli(``rate``) traffic for ``cycles`` cycles, then drain for up
    to ``cycles * 4`` more; returns (stats, machine) for further
    inspection."""
    from ..core.machine import MachineConfig

    machine = Ultracomputer(MachineConfig(n_pes=n_pes, **config))
    driver = SyntheticTrafficDriver(machine, TrafficSpec(rate=rate, seed=seed))
    machine.attach_driver(driver)
    machine.run_cycles(cycles)
    # Drain in-flight traffic so latency statistics are complete.
    driver.drain(cycles * 4)
    return driver.stats(), machine
