"""SweepRunner: serial/pool execution, streaming, caching, resume."""

from __future__ import annotations

import pytest

from repro.exp import (
    ExperimentSpec,
    NullCache,
    ResultCache,
    SweepAxis,
    SweepRunner,
    point_function,
    serial_runner,
)

# Registered once at import; fork-started pool workers inherit these.


@point_function("enginetest.double")
def _double(params):
    return {"value": params["x"] * 2, "seed": params["seed"]}


@point_function("enginetest.boom")
def _boom(params):
    raise RuntimeError("point exploded")


@point_function("enginetest.unserializable")
def _unserializable(params):
    return {"ok": 1, "nested": {"handle": object()}}


def double_spec(values=(1, 2, 3), seed=0):
    return ExperimentSpec(
        experiment="enginetest.double",
        axes=(SweepAxis("x", tuple(values)),),
        seed=seed,
    )


class TestSerialExecution:
    def test_payloads_in_index_order(self, tmp_path):
        result = serial_runner().run(double_spec((5, 1, 3)))
        assert [p["value"] for p in result.payloads] == [10, 2, 6]
        assert result.workers == 1
        assert result.cached_points == 0

    def test_seed_reaches_point_function(self):
        result = serial_runner().run(double_spec((1,), seed=9))
        assert result.payloads[0]["seed"] == 9

    def test_serial_runner_never_touches_disk(self, tmp_path):
        serial_runner().run(double_spec())
        # the autouse fixture points REPRO_EXP_CACHE at tmp_path;
        # nothing may appear there
        assert not list(tmp_path.rglob("*.json"))

    def test_unknown_experiment_raises(self):
        spec = ExperimentSpec(experiment="no.such.experiment")
        with pytest.raises(KeyError, match="no.such.experiment"):
            serial_runner().run(spec)

    def test_point_error_propagates(self):
        spec = ExperimentSpec(experiment="enginetest.boom")
        with pytest.raises(RuntimeError, match="point exploded"):
            serial_runner().run(spec)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)


class TestCachingAndResume:
    def _runner(self, tmp_path, **kwargs):
        return SweepRunner(
            workers=1, cache=ResultCache(tmp_path / "cache"), **kwargs
        )

    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        cold = self._runner(tmp_path).run(double_spec())
        warm = self._runner(tmp_path).run(double_spec())
        assert cold.cached_points == 0 and cold.computed_points == 3
        assert warm.cached_points == 3 and warm.computed_points == 0
        assert warm.payloads == cold.payloads

    def test_partial_sweep_resumes(self, tmp_path):
        self._runner(tmp_path).run(double_spec((1, 2)))
        widened = self._runner(tmp_path).run(double_spec((1, 2, 3, 4)))
        assert widened.cached_points == 2
        assert widened.computed_points == 2
        assert [p["value"] for p in widened.payloads] == [2, 4, 6, 8]

    def test_different_seed_misses(self, tmp_path):
        self._runner(tmp_path).run(double_spec(seed=0))
        reseeded = self._runner(tmp_path).run(double_spec(seed=1))
        assert reseeded.cached_points == 0

    def test_refresh_ignores_but_rewrites_entries(self, tmp_path):
        self._runner(tmp_path).run(double_spec())
        refreshed = self._runner(tmp_path, refresh=True).run(double_spec())
        assert refreshed.cached_points == 0
        rerun = self._runner(tmp_path).run(double_spec())
        assert rerun.cached_points == 3

    def test_stream_yields_cached_points_first(self, tmp_path):
        self._runner(tmp_path).run(double_spec((1, 2)))
        runner = self._runner(tmp_path)
        order = [
            (outcome.cached, outcome.index)
            for outcome in runner.stream(double_spec((1, 2, 3)))
        ]
        assert order == [(True, 0), (True, 1), (False, 2)]

    def test_break_mid_stream_leaves_resumable_state(self, tmp_path):
        runner = self._runner(tmp_path)
        for outcome in runner.stream(double_spec((1, 2, 3))):
            break  # simulate being killed after the first completion
        resumed = self._runner(tmp_path).run(double_spec((1, 2, 3)))
        assert resumed.cached_points >= 1

    def test_on_point_callback(self, tmp_path):
        seen = []
        self._runner(tmp_path).run(
            double_spec(), on_point=lambda outcome: seen.append(outcome.index)
        )
        assert sorted(seen) == [0, 1, 2]


class TestPayloadSerialization:
    """Regression: a non-JSON payload used to be ``repr``-stringified
    silently, poisoning the content-addressed cache with values that
    never compared equal across runs.  Now it raises, naming the
    experiment and the offending key."""

    def test_unserializable_payload_raises_typed_error(self):
        from repro.exp import PayloadSerializationError

        spec = ExperimentSpec(experiment="enginetest.unserializable")
        with pytest.raises(PayloadSerializationError) as excinfo:
            serial_runner().run(spec)
        err = excinfo.value
        assert err.experiment == "enginetest.unserializable"
        assert err.path == "$.nested.handle"
        assert "object" in str(err)
        assert isinstance(err, TypeError)  # old call sites still catch

    def test_nan_payload_is_not_rejected(self):
        # json.dumps allows NaN by default; the engine keeps that
        # behavior — only genuinely unencodable types raise.
        from repro.exp.engine import _canonical_payload

        out = _canonical_payload({"v": float("nan")}, experiment="x")
        assert out["v"] != out["v"]

    def test_locator_finds_nested_offender(self):
        from repro.exp.engine import _find_unserializable

        path, value = _find_unserializable(
            {"a": [1, {"b": {1, 2}}], "c": "fine"}
        )
        assert path == "$.a[1].b"
        assert value == {1, 2}


class TestPoolExecution:
    def test_pool_matches_serial_bit_for_bit(self, tmp_path):
        serial = serial_runner().run(double_spec((1, 2, 3, 4)))
        pooled = SweepRunner(workers=2, cache=NullCache()).run(
            double_spec((1, 2, 3, 4))
        )
        assert pooled.payloads == serial.payloads
        assert pooled.workers == 2

    def test_pool_runs_builtin_machine_experiment(self, tmp_path):
        # the real registry path: workers import the builtin experiments
        from repro.exp import hotspot_spec

        spec = hotspot_spec(pes=4, rounds=2, instrument=False)
        serial = serial_runner().run(spec)
        pooled = SweepRunner(workers=2, cache=NullCache()).run(spec)
        assert pooled.payloads == serial.payloads

    def test_workers_clamped_to_pending(self, tmp_path):
        runner = SweepRunner(workers=8, cache=NullCache())
        assert runner._effective_workers(2) == 2


class TestPerCallState:
    """Regression: the runner kept its last call's trace id and backend
    name on itself, so a sweep run from inside another sweep's
    ``on_point`` callback overwrote the outer result's metadata."""

    def test_nested_run_keeps_each_results_own_metadata(self):
        runner = SweepRunner(workers=2, cache=NullCache())
        inner = []

        def on_point(outcome):
            if not inner:
                inner.append(runner.run(double_spec((7,))))

        outer = runner.run(double_spec((1, 2, 3)), on_point=on_point)
        assert outer.backend == "pool" and inner[0].backend == "serial"
        assert len(outer.trace_id) == len(inner[0].trace_id) == 16
        assert outer.trace_id != inner[0].trace_id

    def test_fully_cached_call_has_no_trace(self, tmp_path):
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path / "c"))
        cold = runner.run(double_spec())
        warm = runner.run(double_spec())
        assert len(cold.trace_id) == 16
        assert warm.trace_id == ""
