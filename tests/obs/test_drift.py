"""Analytic drift monitor: simulation vs the closed-form model."""

import json

import pytest

from repro.analysis.queueing import predict_uniform_run, switch_delay
from repro.core.machine import MachineConfig, Ultracomputer
from repro.network.topology import make_topology
from repro.obs import measure_drift
from repro.obs.drift import DriftReport, StageDrift
from repro.obs.spans import reconstruct_spans
from repro.workloads.synthetic import SyntheticTrafficDriver, TrafficSpec


class TestMeasureDrift:
    def test_reference_point_within_threshold(self):
        # The Figure 7 reference point CI gates on, at reduced cycles.
        report = measure_drift(cycles=800)
        assert report.ok
        assert report.max_stage_error < report.threshold
        assert report.round_trip_error < report.threshold
        assert report.warnings() == []
        assert report.requests > 0
        assert 0.0 < report.observed_rate < 1.0
        # per-stage comparison covers stages 0..D-2 (the last stage has
        # no downstream enqueue to pin down its departure)
        assert [s.stage for s in report.stages] == [0, 1, 2]
        for stage in report.stages:
            assert stage.samples == report.requests

    def test_tiny_threshold_flags_warnings(self):
        report = measure_drift(cycles=400, threshold=1e-9)
        assert not report.ok
        warnings = report.warnings()
        assert warnings
        assert any("drifts" in w for w in warnings)

    def test_to_dict_round_trips_through_json(self):
        report = measure_drift(cycles=400)
        restored = json.loads(json.dumps(report.to_dict()))
        assert restored["ok"] is True
        assert restored["round_trip"]["rel_error"] >= 0
        for stage in restored["stages"]:
            assert stage["rel_error"] >= 0
            assert stage["samples"] > 0
        assert restored["threshold"] == report.threshold

    def test_observed_rate_feeds_the_model(self):
        report = measure_drift(cycles=400)
        prediction = predict_uniform_run(
            report.n_pes, report.k, report.observed_rate
        )
        assert report.stages[0].predicted_delay == pytest.approx(
            prediction.forward_switch_delay
        )
        assert report.round_trip_predicted == pytest.approx(
            prediction.round_trip
        )


def _span_path_report(*, n_pes, rate, cycles, seed, topology,
                      queue_capacity_packets=None, k=2, mm_latency=2,
                      threshold=0.25):
    """``measure_drift`` as it was computed from a traced run: the
    per-stage delays pooled from the reconstructed spans."""
    stages = make_topology(topology, n_pes, k).stages
    trace_capacity = max(1, int(n_pes * rate * cycles)) * (stages + 6) * 2 + 4096
    machine = Ultracomputer(MachineConfig(
        n_pes=n_pes, k=k, mm_latency=mm_latency,
        queue_capacity_packets=queue_capacity_packets, instrument=True,
        trace_capacity=trace_capacity, topology=topology,
    ))
    driver = SyntheticTrafficDriver(machine, TrafficSpec(rate=rate, seed=seed))
    machine.attach_driver(driver)
    machine.run_cycles(cycles)
    driver.drain(cycles * 4)
    result = machine.stats()
    spans = reconstruct_spans(result.trace, dropped=result.trace_dropped)
    observed_rate = result.requests_issued / (n_pes * cycles)
    prediction = predict_uniform_run(n_pes, k, observed_rate,
                                     mm_latency=mm_latency,
                                     topology=machine.topology)
    return DriftReport(
        n_pes=n_pes, k=k, cycles=cycles, topology=topology,
        offered_rate=rate, observed_rate=observed_rate,
        requests=result.requests_issued,
        stages=tuple(
            StageDrift(stage=stage, observed_delay=sum(delays) / len(delays),
                       predicted_delay=prediction.forward_switch_delay,
                       samples=len(delays))
            for stage, delays in sorted(spans.stage_delays().items())
            if delays
        ),
        round_trip_observed=result.mean_round_trip,
        round_trip_predicted=prediction.round_trip,
        threshold=threshold,
    )


class TestSpanParity:
    """The untraced report reads the networks' stage-delay counters; it
    must equal the report the spans of a traced run give, bit for bit
    (delays and per-stage sample counts included)."""

    @pytest.mark.parametrize("topology", ["omega", "hypercube", "mesh"])
    def test_matches_the_span_path(self, topology):
        params = dict(n_pes=16, rate=0.15, cycles=300, seed=2, topology=topology)
        report = measure_drift(**params)
        traced = _span_path_report(**params)
        assert report == traced
        assert report.to_dict() == traced.to_dict()

    def test_matches_the_span_path_with_finite_queues(self):
        params = dict(n_pes=16, rate=0.25, cycles=300, seed=4, topology="omega",
                      queue_capacity_packets=4)
        report = measure_drift(**params)
        assert report == _span_path_report(**params)
        assert max(stage.observed_delay for stage in report.stages) > 1.0


class TestPredictUniformRun:
    def test_forward_delay_uses_request_packets(self):
        prediction = predict_uniform_run(16, 2, 0.1)
        # forward queues carry 1-packet requests: m=1, not the m=2
        # round-trip convention
        assert prediction.forward_switch_delay == pytest.approx(
            switch_delay(2, 1, 0.1)
        )

    def test_round_trip_uses_averaged_m(self):
        from repro.analysis.queueing import round_trip_time

        prediction = predict_uniform_run(16, 2, 0.1)
        assert prediction.round_trip == pytest.approx(
            round_trip_time(16, 2, 2, 0.1)
        )

    def test_zero_load_degenerates_to_service_only(self):
        prediction = predict_uniform_run(16, 2, 0.0)
        assert prediction.forward_switch_delay == 1.0
