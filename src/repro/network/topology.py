"""Network topologies: the ``Topology`` protocol, its registry, and the
Omega geometry (section 3.1.1, Figure 2).

The Omega network connects ``N = k**D`` processing elements to ``N``
memory modules through ``D`` stages of k-input-k-output switches, with
the k-ary perfect shuffle wired between stages.  Routing is
destination-tag: writing the module number in base ``k`` as
``m_D ... m_1``, the message leaving the stage-``j`` switch (counting
from the PE side, most significant digit first in our indexing) uses
output port equal to the corresponding destination digit; there is a
unique path for every (PE, MM) pair.

The paper's combining switches and its queueing model are not tied to
that geometry, so the routing/wiring questions the simulator actually
asks are factored into the :class:`Topology` protocol; any class
answering them (see :mod:`repro.network.topologies` for a binary
hypercube and a 2-D mesh) plugs into the generic
:class:`~repro.network.multistage.MultistageNetwork` and therefore the
whole machine.  Topologies register by name in :data:`TOPOLOGIES`,
mirroring the kernel registry of :mod:`repro.core.scheduler`, so
``MachineConfig(topology=...)`` and the CLI's ``--topology`` choices
need no per-topology code.

All topology classes are pure combinatorics — no simulation state — so
the cycle simulator, the structural tests, and the Figure 2 benchmark
all share one definition of each wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable


def digits_of(x: int, base: int, width: int) -> list[int]:
    """Base-``base`` digits of ``x``, most significant first."""
    out = [0] * width
    for i in range(width - 1, -1, -1):
        out[i] = x % base
        x //= base
    if x:
        raise ValueError(f"value does not fit in {width} base-{base} digits")
    return out


def from_digits(digits: list[int], base: int) -> int:
    value = 0
    for d in digits:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        value = value * base + d
    return value


@dataclass(frozen=True)
class Hop:
    """One switch traversal on a forward path (for tests and displays)."""

    stage: int
    switch: int
    in_port: int
    out_port: int


#: One (label, mean switch traversals per message, per-queue traffic
#: intensity as a fraction of the per-PE rate p) row of a topology's
#: uniform-load description; consumed by
#: :func:`repro.analysis.queueing.hop_transit_time`.
HopClass = tuple[str, float, float]

#: A forward output port's destination: ``("mm", line)`` ejects to a
#: memory module, ``("switch", index, in_port)`` feeds the next stage,
#: ``None`` marks a port no route ever uses (e.g. a mesh edge).
ForwardTarget = Optional[tuple]

#: A return output port's destination: ``("pe", line)`` delivers to a
#: processor, ``("switch", index, mm_port)`` feeds the previous stage,
#: ``None`` marks an unused port.
ReturnTarget = Optional[tuple]


@runtime_checkable
class Topology(Protocol):
    """Everything the simulator asks of a network geometry.

    The unit of structure is the *unrolled stage grid*: ``stages`` rows
    of ``switches_per_stage`` combining switches of ``switch_arity``
    ports each, where row ``j`` holds the ``j``-th switch traversal of
    any forward path.  For the Omega network the grid is the physical
    network; for direct networks (hypercube, mesh) each row replicates
    the node-switches and the grid is a hop-indexed unrolling — see
    :mod:`repro.network.topologies` for what that approximates.

    Routes are destination-digit: ``route_digits(destination, source)``
    yields one output-port digit per stage, consumed by
    :meth:`repro.network.switch.Switch.offer_forward` and overwritten in
    place with the arrival port (the paper's amalgam), which
    :meth:`return_target` then interprets on the way back.  The protocol
    therefore has one hard invariant, relied on by combining: the
    remaining route of a message depends only on (current switch,
    destination), never on its origin — two messages meeting in a queue
    with the same destination share their entire remaining path.
    """

    name: str
    n_ports: int
    stages: int
    switches_per_stage: int

    @property
    def switch_arity(self) -> int:
        """Ports per switch (the k of the queueing model's 1 - 1/k)."""
        ...

    # -- routing -------------------------------------------------------
    def route_tuple(self, destination: int, source: int = 0) -> tuple[int, ...]:
        """Interned per-stage output-port digits (stage 0 first)."""
        ...

    def route_digits(self, destination: int, source: int = 0) -> list[int]:
        """Mutable copy of :meth:`route_tuple`."""
        ...

    def forward_path(self, source: int, destination: int) -> list[Hop]:
        """The unique source→destination path as switch hops."""
        ...

    # -- wiring (consumed once by MultistageNetwork._build_wiring) -----
    def inject_point(self, source: int) -> tuple[int, int]:
        """(switch, in_port) at stage 0 where PE ``source`` injects."""
        ...

    def reply_entry(self, mm: int, origin: int) -> tuple[int, int, int]:
        """(stage, switch, mm_port) where MM ``mm``'s reply to a request
        from ``origin`` re-enters the grid — the exact queue whose wait
        buffer holds the request's combining records."""
        ...

    def forward_target(self, stage: int, switch: int, out_port: int) -> ForwardTarget:
        ...

    def return_target(self, stage: int, switch: int, out_port: int) -> ReturnTarget:
        ...

    # -- structural facts (packaging model, analytics) -----------------
    @property
    def n_switches(self) -> int:
        """Physical switch count (not the unrolled grid size)."""
        ...

    @property
    def n_links(self) -> int:
        """Physical switch-to-switch links (endpoint links excluded)."""
        ...

    def paths_through_switch(self, stage: int, switch: int) -> int:
        ...

    def hop_classes(self) -> tuple[HopClass, ...]:
        """Uniform-load description for the closed-form queueing model."""
        ...

    def describe(self) -> str:
        ...


# ----------------------------------------------------------------------
# registry (mirrors the kernel registry in repro.core.scheduler)
# ----------------------------------------------------------------------
#: (n_ports, k) -> Topology.  Factories may import lazily; the *names*
#: and size validators must be resolvable import-free so that
#: ``MachineConfig.validate()`` and the CLI can enumerate them.
TopologyFactory = Callable[[int, int], "Topology"]


@dataclass(frozen=True)
class TopologyEntry:
    factory: TopologyFactory
    validate_size: Callable[[int, int], None]


TOPOLOGIES: dict[str, TopologyEntry] = {}


def register_topology(
    name: str,
    factory: TopologyFactory,
    *,
    validate_size: Callable[[int, int], None],
    replace: bool = False,
) -> None:
    """Register a topology under ``MachineConfig.topology=name``.

    ``validate_size(n_ports, k)`` must raise :class:`ValueError` naming
    the nearest valid sizes when ``n_ports`` does not fit the geometry;
    it runs from ``MachineConfig.validate()`` before any wiring exists.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"topology name must be a non-empty string, got {name!r}")
    if not replace and name in TOPOLOGIES:
        raise ValueError(
            f"topology {name!r} is already registered; pass replace=True "
            "to override it"
        )
    TOPOLOGIES[name] = TopologyEntry(factory=factory, validate_size=validate_size)


def topology_names() -> tuple[str, ...]:
    """Registered topology names, sorted (the ``--topology`` choices)."""
    return tuple(sorted(TOPOLOGIES))


def validate_topology_size(name: str, n_ports: int, k: int = 2) -> None:
    """Raise ValueError unless ``n_ports`` fits topology ``name``."""
    try:
        entry = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    entry.validate_size(n_ports, k)


def make_topology(name: str, n_ports: int, k: int = 2) -> "Topology":
    """Build a registered topology, validating the size first."""
    validate_topology_size(name, n_ports, k)
    return TOPOLOGIES[name].factory(n_ports, k)


class OmegaTopology:
    """Wiring and routing of a k-ary Omega network with ``n`` ports."""

    name = "omega"

    def __init__(self, n_ports: int, k: int = 2) -> None:
        if k < 2:
            raise ValueError("switch arity k must be at least 2")
        stages = 0
        size = 1
        while size < n_ports:
            size *= k
            stages += 1
        if size != n_ports:
            raise ValueError(
                f"n_ports={n_ports} is not a power of the switch arity k={k}"
            )
        if stages == 0:
            raise ValueError("network needs at least one stage (n_ports > 1)")
        self.n_ports = n_ports
        self.k = k
        self.stages = stages
        self.switches_per_stage = n_ports // k
        # Destination -> interned digit tuple; the destination space is
        # just the module numbers, so this stays small while making
        # per-message route computation a dict hit (see route_tuple).
        self._route_cache: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def shuffle(self, line: int) -> int:
        """The k-ary perfect shuffle: rotate the digit string left."""
        return (line * self.k) % self.n_ports + (line * self.k) // self.n_ports

    def unshuffle(self, line: int) -> int:
        """Inverse shuffle: rotate the digit string right."""
        return (line % self.k) * (self.n_ports // self.k) + line // self.k

    def stage_input(self, line: int) -> tuple[int, int]:
        """Map a pre-stage line (after shuffling) to (switch, in_port)."""
        shuffled = self.shuffle(line)
        return shuffled // self.k, shuffled % self.k

    def stage_output_line(self, switch: int, out_port: int) -> int:
        """Line index produced by a switch output port."""
        return switch * self.k + out_port

    @property
    def switch_arity(self) -> int:
        return self.k

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_tuple(self, destination: int, source: int = 0) -> tuple[int, ...]:
        """Interned destination-digit tuple (PE side first).

        A PNI issues its requests with this tuple, and the network
        first offered one copies it into the mutable digit vector; the
        digits themselves are computed once per destination.  ``source``
        is part of the :class:`Topology` protocol but irrelevant here —
        destination-tag routes are source-independent in an Omega
        network (every input reaches the same output via the same digit
        string), which is what keeps this cache keyed by destination
        alone.
        """
        cached = self._route_cache.get(destination)
        if cached is None:
            cached = tuple(digits_of(destination, self.k, self.stages))
            self._route_cache[destination] = cached
        return cached

    def route_digits(self, destination: int, source: int = 0) -> list[int]:
        """Destination digits consumed stage by stage (PE side first)."""
        return list(self.route_tuple(destination))

    def route_table(self) -> list[list[int]]:
        """Every destination's route digits, by destination: a route
        depends on the destination alone.  Nothing is interned, so a
        table of every route costs no tuple per destination a run never
        addresses."""
        return [digits_of(mm, self.k, self.stages) for mm in range(self.n_ports)]

    def forward_path(self, source: int, destination: int) -> list[Hop]:
        """The unique source→destination path as a list of switch hops."""
        if not 0 <= source < self.n_ports:
            raise ValueError(f"source {source} out of range")
        if not 0 <= destination < self.n_ports:
            raise ValueError(f"destination {destination} out of range")
        line = source
        hops: list[Hop] = []
        digits = self.route_digits(destination)
        for stage in range(self.stages):
            switch, in_port = self.stage_input(line)
            out_port = digits[stage]
            hops.append(Hop(stage=stage, switch=switch, in_port=in_port, out_port=out_port))
            line = self.stage_output_line(switch, out_port)
        if line != destination:
            raise AssertionError(
                "routing invariant violated: destination-tag routing did "
                f"not deliver {source}->{destination} (landed on {line})"
            )
        return hops

    def return_path(self, source: int, destination: int) -> list[Hop]:
        """The reply path (memory side back to the PE).

        Per the amalgam scheme, the reply leaving the stage-``s`` switch
        toward the PE side uses the origin digit recorded when the
        request passed that switch — which equals the request's arrival
        port there.  The hops are returned memory-side first.
        """
        forward = self.forward_path(source, destination)
        return [
            Hop(stage=h.stage, switch=h.switch, in_port=h.out_port, out_port=h.in_port)
            for h in reversed(forward)
        ]

    def reachable_outputs(self, source: int) -> set[int]:
        """All MMs reachable from ``source`` (must be every output)."""
        outputs = set()
        for dest in range(self.n_ports):
            last = self.forward_path(source, dest)[-1]
            outputs.add(self.stage_output_line(last.switch, last.out_port))
        return outputs

    # ------------------------------------------------------------------
    # wiring protocol (consumed by MultistageNetwork._build_wiring)
    # ------------------------------------------------------------------
    def inject_point(self, source: int) -> tuple[int, int]:
        """PE ``source`` enters stage 0 through the shuffle wiring."""
        return self.stage_input(source)

    def reply_entry(self, mm: int, origin: int) -> tuple[int, int, int]:
        """Replies enter the last stage at the output that fed the MM.

        ``origin`` is irrelevant for Omega — every request for ``mm``
        leaves the same last-stage port regardless of source.
        """
        return self.stages - 1, mm // self.k, mm % self.k

    def forward_target(self, stage: int, switch: int, out_port: int) -> ForwardTarget:
        line = self.stage_output_line(switch, out_port)
        if stage == self.stages - 1:
            return ("mm", line)
        next_switch, next_port = self.stage_input(line)
        return ("switch", next_switch, next_port)

    def return_target(self, stage: int, switch: int, out_port: int) -> ReturnTarget:
        line = self.unshuffle(switch * self.k + out_port)
        if stage == 0:
            return ("pe", line)
        prev_switch, mm_port = divmod(line, self.k)
        return ("switch", prev_switch, mm_port)

    # ------------------------------------------------------------------
    # structural facts used by the packaging model (section 3.6)
    # ------------------------------------------------------------------
    @property
    def n_switches(self) -> int:
        """Total switch count: (n/k) * log_k n, the O(N log N) component
        budget of design objective 3."""
        return self.switches_per_stage * self.stages

    @property
    def n_links(self) -> int:
        """Switch-to-switch lines: N per shuffle, D-1 shuffles between
        stages (the PE- and MM-side attachment lines are not counted)."""
        return self.n_ports * (self.stages - 1)

    def paths_through_switch(self, stage: int, switch: int) -> int:
        """Number of (PE, MM) pairs whose unique path crosses a switch.

        All N^2 paths cross exactly one switch per stage, and by the
        symmetry of the shuffle wiring every switch in a stage carries an
        equal share; tests confirm this exhaustively on small networks.
        """
        if not 0 <= stage < self.stages:
            raise ValueError(
                f"stage {stage} out of range for a {self.stages}-stage network"
            )
        if not 0 <= switch < self.switches_per_stage:
            raise ValueError(
                f"switch {switch} out of range for "
                f"{self.switches_per_stage} switches per stage"
            )
        return self.n_ports * self.n_ports // self.switches_per_stage

    def hop_classes(self) -> tuple[HopClass, ...]:
        """Every message crosses all D stages; with uniform destinations
        each stage queue carries the full per-PE intensity p (the
        premise of section 4.1's per-stage closed form)."""
        return (("stage", float(self.stages), 1.0),)

    def describe(self) -> str:
        return (
            f"Omega network: {self.n_ports} PEs x {self.n_ports} MMs, "
            f"{self.stages} stages of {self.switches_per_stage} "
            f"{self.k}x{self.k} switches ({self.n_switches} switches total)"
        )


# ----------------------------------------------------------------------
# size validators and registrations
# ----------------------------------------------------------------------
def _validate_omega_size(n_ports: int, k: int) -> None:
    if k < 2:
        raise ValueError("switch arity k must be at least 2")
    if n_ports < k:
        raise ValueError(
            f"n_pes={n_ports} is smaller than k={k}; the machine needs "
            f"at least one {k}x{k} switch stage"
        )
    n = n_ports
    while n % k == 0:
        n //= k
    if n != 1:
        below = k
        while below * k <= n_ports:
            below *= k
        raise ValueError(
            f"n_pes={n_ports} is not a power of k={k}, so it is invalid "
            f"for the omega topology; nearest valid sizes are {below} "
            f"and {below * k}"
        )


def _validate_hypercube_size(n_ports: int, k: int) -> None:
    # k is the Omega digit base; a *binary* hypercube ignores it — its
    # per-node degree is fixed by the dimension count.
    if n_ports < 2 or n_ports & (n_ports - 1):
        below = 1 << max(0, n_ports.bit_length() - 1)
        below = max(2, below)
        raise ValueError(
            f"n_pes={n_ports} is invalid for the hypercube topology; a "
            f"binary hypercube needs N = 2**D (nearest valid sizes: "
            f"{below} and {below * 2})"
        )


def _validate_mesh_size(n_ports: int, k: int) -> None:
    root = math.isqrt(max(0, n_ports))
    if n_ports < 4 or root * root != n_ports:
        below = max(2, root)
        raise ValueError(
            f"n_pes={n_ports} is invalid for the mesh topology; a 2-D "
            f"mesh needs N = r*r with r >= 2 (nearest valid sizes: "
            f"{below * below} and {(below + 1) * (below + 1)})"
        )


def _make_hypercube(n_ports: int, k: int) -> "Topology":
    # Lazy import: the registry must be enumerable without pulling in
    # every geometry.
    from .topologies import HypercubeTopology

    return HypercubeTopology(n_ports)


def _make_mesh(n_ports: int, k: int) -> "Topology":
    from .topologies import MeshTopology

    return MeshTopology(n_ports)


register_topology(
    "omega",
    lambda n_ports, k: OmegaTopology(n_ports, k),
    validate_size=_validate_omega_size,
)
register_topology("hypercube", _make_hypercube, validate_size=_validate_hypercube_size)
register_topology("mesh", _make_mesh, validate_size=_validate_mesh_size)
