"""Unit tests for :class:`repro.serve.SweepService` (no HTTP).

The differential contract — service payloads byte-identical to
:class:`~repro.exp.SweepRunner` — plus cache/progress/refresh
behaviors, driven directly on an event loop.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exp import ExperimentSpec, NullCache, ResultCache, SweepRunner
from repro.serve import SweepService


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


SPEC = ExperimentSpec(
    experiment="debug.echo",
    base={"tag": "service"},
    axes=(("n", (1, 2, 3, 4)),),
    seed=6,
)


def execute(service, spec, **kwargs):
    try:
        return asyncio.run(service.execute(spec, **kwargs))
    finally:
        service.shutdown()


class TestParity:
    def test_payload_matches_runner_bit_for_bit(self, tmp_path):
        service = SweepService(workers=2, cache=ResultCache(tmp_path / "a"))
        served = execute(service, SPEC)
        direct = SweepRunner(workers=1, cache=NullCache()).run(SPEC).to_dict()
        assert canonical(served["results"]) == canonical(direct["results"])
        assert served["spec"] == direct["spec"]
        assert served["spec_hash"] == direct["spec_hash"]
        assert served["computed_points"] == 4
        assert served["cached_points"] == 0

    def test_results_ordered_by_point_index(self, tmp_path):
        service = SweepService(workers=2, cache=ResultCache(tmp_path / "b"))
        served = execute(service, SPEC)
        values = [r["echo"]["n"] for r in served["results"]]
        assert values == [1, 2, 3, 4]


class TestCache:
    def test_second_execution_is_pure_cache_read(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        service = SweepService(workers=2, cache=cache)
        try:
            cold = asyncio.run(service.execute(SPEC))
            warm = asyncio.run(service.execute(SPEC))
        finally:
            service.shutdown()
        assert cold["computed_points"] == 4 and cold["cached_points"] == 0
        assert warm["computed_points"] == 0 and warm["cached_points"] == 4
        assert canonical(cold["results"]) == canonical(warm["results"])

    def test_cache_shared_with_direct_runner(self, tmp_path):
        """The service reads points a SweepRunner wrote, and vice versa
        — one content store across every execution path."""
        cache_dir = tmp_path / "d"
        SweepRunner(workers=1, cache=ResultCache(cache_dir)).run(SPEC)
        service = SweepService(workers=2, cache=ResultCache(cache_dir))
        served = execute(service, SPEC)
        assert served["computed_points"] == 0
        assert served["cached_points"] == 4

    def test_refresh_recomputes_but_rewrites(self, tmp_path):
        cache = ResultCache(tmp_path / "e")
        execute(SweepService(workers=2, cache=cache), SPEC)
        writes = cache.writes
        refreshed = execute(
            SweepService(workers=2, cache=cache, refresh=True), SPEC
        )
        assert refreshed["computed_points"] == 4
        assert cache.writes == writes + 4

    def test_concurrent_distinct_specs(self, tmp_path):
        """Overlapping executes on one service each get their own
        result, and every cache read and write is counted."""
        specs = [
            ExperimentSpec(experiment="debug.echo", base={"tag": tag},
                           axes=(("n", tuple(range(points))),), seed=6)
            for tag, points in (("a", 2), ("b", 3), ("c", 4))
        ]
        cache = ResultCache(tmp_path / "i")
        service = SweepService(workers=2, cache=cache)

        async def gather():
            return await asyncio.gather(
                *(service.execute(spec) for spec in specs)
            )

        try:
            served = asyncio.run(gather())
        finally:
            service.shutdown()
        shared = ("spec", "spec_hash", "cached_points", "computed_points",
                  "results")
        for spec, payload in zip(specs, served):
            direct = SweepRunner(workers=1, cache=NullCache()).run(spec)
            assert canonical({k: payload[k] for k in shared}) == canonical(
                {k: direct.to_dict()[k] for k in shared})
            assert len(payload["trace_id"]) == 16
        assert len({payload["trace_id"] for payload in served}) == 3
        stats = cache.stats()
        assert stats["writes"] == sum(
            payload["computed_points"] for payload in served) == 9
        assert stats["hits"] + stats["misses"] == 9


class TestProgress:
    def test_progress_event_per_point_with_running_done_count(self, tmp_path):
        service = SweepService(workers=2, cache=ResultCache(tmp_path / "f"))
        events: list = []
        served = execute(service, SPEC, on_progress=events.append)
        assert len(events) == 4
        assert {e["index"] for e in events} == {0, 1, 2, 3}
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        assert all(e["total"] == 4 and not e["cached"] for e in events)
        assert served["computed_points"] == 4

    def test_cached_points_reported_as_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "g")
        service = SweepService(workers=2, cache=cache)
        try:
            asyncio.run(service.execute(SPEC))
            events: list = []
            asyncio.run(service.execute(SPEC, on_progress=events.append))
        finally:
            service.shutdown()
        assert len(events) == 4
        assert all(e["cached"] for e in events)


class TestValidation:
    def test_rejects_silly_worker_counts(self):
        with pytest.raises(ValueError):
            SweepService(workers=0)

    def test_pool_is_lazy(self, tmp_path):
        service = SweepService(workers=2, cache=ResultCache(tmp_path / "h"))
        # no pool until first compute (or an explicit warm())
        assert service.backend._executor is None
        service.shutdown()
