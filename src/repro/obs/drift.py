"""Analytic drift monitor: simulation vs the closed-form queueing model.

The paper validated its network simulator against the Kruskal–Snir
queueing model of section 4.1 ("our preliminary analyses and partial
simulations have yielded encouraging results"); :func:`measure_drift`
automates that check.  It runs uniform Bernoulli traffic through the
cycle-accurate machine, reads the per-stage switch delays the networks
count (the hops per-request spans report), and compares

* the observed mean switch delay at each measurable stage against
  :func:`repro.analysis.queueing.switch_delay` (at the request-sized
  multiplexing factor — forward queues only carry 1-packet requests),
* the observed mean round trip against
  :func:`repro.analysis.queueing.round_trip_time` (at the averaged
  m=2 the VALID benchmark established),

reporting per-stage relative error and flagging anything above a
configurable threshold.  The model's p is taken from the *observed*
issue rate, not the offered rate, so PNI backpressure does not read as
model drift.

The last network stage has no downstream enqueue to pin down its
departure, so per-stage comparison covers stages ``0 .. D-2``; the
round-trip comparison covers the full path including that stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..analysis.queueing import predict_uniform_run

#: Default acceptable relative error — matches the VALID benchmark's
#: low-load tolerance between the same two models.
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class StageDrift:
    """Per-stage comparison of observed vs predicted switch delay."""

    stage: int
    observed_delay: float
    predicted_delay: float
    samples: int

    @property
    def rel_error(self) -> float:
        return abs(self.observed_delay - self.predicted_delay) / self.predicted_delay

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "observed_delay": self.observed_delay,
            "predicted_delay": self.predicted_delay,
            "samples": self.samples,
            "rel_error": self.rel_error,
        }


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one sim-vs-model comparison run."""

    n_pes: int
    k: int
    cycles: int
    topology: str
    offered_rate: float
    observed_rate: float
    requests: int
    stages: tuple[StageDrift, ...]
    round_trip_observed: float
    round_trip_predicted: float
    threshold: float

    @property
    def round_trip_error(self) -> float:
        return (
            abs(self.round_trip_observed - self.round_trip_predicted)
            / self.round_trip_predicted
        )

    @property
    def max_stage_error(self) -> float:
        return max((s.rel_error for s in self.stages), default=0.0)

    @property
    def ok(self) -> bool:
        """True when every compared quantity is within the threshold."""
        return (
            self.max_stage_error <= self.threshold
            and self.round_trip_error <= self.threshold
        )

    def warnings(self) -> list[str]:
        """Human-readable description of every threshold violation."""
        out = []
        for s in self.stages:
            if s.rel_error > self.threshold:
                out.append(
                    f"stage {s.stage} delay drifts {s.rel_error:.1%} from "
                    f"the model ({s.observed_delay:.3f} observed vs "
                    f"{s.predicted_delay:.3f} predicted; threshold "
                    f"{self.threshold:.0%})"
                )
        if self.round_trip_error > self.threshold:
            out.append(
                f"round trip drifts {self.round_trip_error:.1%} from the "
                f"model ({self.round_trip_observed:.2f} observed vs "
                f"{self.round_trip_predicted:.2f} predicted; threshold "
                f"{self.threshold:.0%})"
            )
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_pes": self.n_pes,
            "k": self.k,
            "cycles": self.cycles,
            "topology": self.topology,
            "offered_rate": self.offered_rate,
            "observed_rate": self.observed_rate,
            "requests": self.requests,
            "stages": [s.to_dict() for s in self.stages],
            "round_trip": {
                "observed": self.round_trip_observed,
                "predicted": self.round_trip_predicted,
                "rel_error": self.round_trip_error,
            },
            "max_stage_error": self.max_stage_error,
            "threshold": self.threshold,
            "ok": self.ok,
            "warnings": self.warnings(),
        }


def measure_drift(
    *,
    n_pes: int = 16,
    rate: float = 0.08,
    cycles: int = 2000,
    k: int = 2,
    seed: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    queue_capacity_packets: Optional[int] = None,
    mm_latency: int = 2,
    topology: str = "omega",
) -> DriftReport:
    """Run uniform traffic and compare against the analytic model.

    Defaults target the Figure 7 reference point: the k=2, d=1 design
    at low load (p ≈ 0.08) on a cycle-simulable 16-port network, with
    the infinite queues the analytic study assumes.  The machine runs
    uninstrumented: the observed per-stage delays are the networks'
    stage-delay counters, which count the hops the spans of a traced
    run report (``SpanSet.stage_delays``).
    """
    from ..network.multistage import pooled_stage_delays
    from ..workloads.synthetic import run_uniform_traffic

    _, machine = run_uniform_traffic(
        n_pes, rate, cycles, seed=seed, k=k, mm_latency=mm_latency,
        queue_capacity_packets=queue_capacity_packets, topology=topology)
    result = machine.stats()
    observed_rate = result.requests_issued / (n_pes * cycles)
    prediction = predict_uniform_run(
        n_pes, k, observed_rate, mm_latency=mm_latency,
        topology=machine.topology,
    )
    stage_drifts = tuple(
        StageDrift(
            stage=stage,
            observed_delay=total / count,
            predicted_delay=prediction.forward_switch_delay,
            samples=count,
        )
        for stage, (total, count) in pooled_stage_delays(machine.networks).items()
    )
    return DriftReport(
        n_pes=n_pes,
        k=k,
        cycles=cycles,
        topology=topology,
        offered_rate=rate,
        observed_rate=observed_rate,
        requests=result.requests_issued,
        stages=stage_drifts,
        round_trip_observed=result.mean_round_trip,
        round_trip_predicted=prediction.round_trip,
        threshold=threshold,
    )
