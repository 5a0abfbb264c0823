"""Windowed time series over a running machine.

:func:`collect_timeline` drives an :class:`~repro.core.machine.
Ultracomputer` in ``window``-cycle chunks and, between chunks, samples
component state from counters the network already maintains (each
queue's ``used_packets``, each wait buffer's occupancy, the MNI busy
counters).  Nothing runs inside the cycle loop, so the series costs the
hot path nothing and works even with ``instrument=False``.

Occupancies (``forward_packets``, ``return_packets``, ``wait_records``)
are instantaneous gauges read at the window boundary; throughput fields
(``combines``, ``requests_issued``, ``replies``) are per-window deltas
of cumulative counters; ``mm_utilization`` is the fraction of
module-cycles spent busy within the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (machine → obs)
    from ..core.machine import Ultracomputer


@dataclass(frozen=True)
class TimelineSample:
    """One window's worth of machine state."""

    cycle: int
    forward_packets: int
    return_packets: int
    forward_packets_per_stage: tuple[int, ...]
    wait_records: int
    combines: int
    requests_issued: int
    replies: int
    mm_utilization: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "cycle": self.cycle,
            "forward_packets": self.forward_packets,
            "return_packets": self.return_packets,
            "forward_packets_per_stage": list(self.forward_packets_per_stage),
            "wait_records": self.wait_records,
            "combines": self.combines,
            "requests_issued": self.requests_issued,
            "replies": self.replies,
            "mm_utilization": self.mm_utilization,
        }


#: Fields :meth:`Timeline.series` accepts (everything scalar per sample).
SERIES_FIELDS = (
    "forward_packets",
    "return_packets",
    "wait_records",
    "combines",
    "requests_issued",
    "replies",
    "mm_utilization",
)


@dataclass
class Timeline:
    """The collected series: one :class:`TimelineSample` per window."""

    window: int
    samples: list[TimelineSample]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[TimelineSample]:
        return iter(self.samples)

    def series(self, name: str) -> list[Any]:
        """One named column as a list (for plotting)."""
        if name not in SERIES_FIELDS:
            raise ValueError(
                f"unknown series {name!r}; choose from {SERIES_FIELDS}"
            )
        return [getattr(sample, name) for sample in self.samples]

    def points(self, name: str) -> list[tuple[float, float]]:
        """``(cycle, value)`` pairs for :func:`repro.reporting.ascii_plot`."""
        return [
            (float(sample.cycle), float(getattr(sample, name)))
            for sample in self.samples
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "samples": [sample.to_dict() for sample in self.samples],
        }


def _gauge_snapshot(machine: "Ultracomputer") -> tuple[list[int], list[int], int]:
    """Per-stage forward/return packet occupancy and total wait records,
    read from the counters the queues and wait buffers maintain."""
    stages = machine.network.topology.stages
    forward = [0] * stages
    ret = [0] * stages
    wait_records = 0
    for network in machine.networks:
        for stage, row in enumerate(network.stages):
            for switch in row:
                forward[stage] += sum(q.used_packets for q in switch.to_mm)
                ret[stage] += sum(q.used_packets for q in switch.to_pe)
                wait_records += sum(len(wb) for wb in switch.wait_buffers)
    return forward, ret, wait_records


def collect_timeline(
    machine: "Ultracomputer", *, cycles: int, window: int
) -> Timeline:
    """Run ``machine`` for ``cycles`` cycles, sampling every ``window``.

    The machine must have its drivers attached; any cycles already
    simulated are left untouched (the series starts from the machine's
    current cycle).  The final window is shortened when ``cycles`` is
    not a multiple of ``window``.
    """
    if window < 1:
        raise ValueError("timeline window must be at least 1 cycle")
    if cycles < 1:
        raise ValueError("timeline needs at least 1 cycle")
    n_mms = len(machine.mnis)
    prev_combines = sum(n.total_combines() for n in machine.networks)
    prev_busy = sum(mni.busy_cycles for mni in machine.mnis)
    prev_issued = sum(pni.requests_issued for pni in machine.pnis)
    prev_replies = sum(pni.replies_received for pni in machine.pnis)

    samples: list[TimelineSample] = []
    remaining = cycles
    while remaining > 0:
        step = min(window, remaining)
        machine.run_cycles(step)
        remaining -= step

        forward, ret, wait_records = _gauge_snapshot(machine)
        combines = sum(n.total_combines() for n in machine.networks)
        busy = sum(mni.busy_cycles for mni in machine.mnis)
        issued = sum(pni.requests_issued for pni in machine.pnis)
        replies = sum(pni.replies_received for pni in machine.pnis)
        samples.append(TimelineSample(
            cycle=machine.cycle,
            forward_packets=sum(forward),
            return_packets=sum(ret),
            forward_packets_per_stage=tuple(forward),
            wait_records=wait_records,
            combines=combines - prev_combines,
            requests_issued=issued - prev_issued,
            replies=replies - prev_replies,
            mm_utilization=(busy - prev_busy) / (step * n_mms),
        ))
        prev_combines, prev_busy = combines, busy
        prev_issued, prev_replies = issued, replies
    return Timeline(window=window, samples=samples)
