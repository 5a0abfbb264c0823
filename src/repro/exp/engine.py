"""The parallel sweep engine.

:class:`SweepRunner` executes an :class:`~repro.exp.spec.ExperimentSpec`
point by point:

* points whose content address is already in the cache are served from
  disk without touching a worker — this is both the warm path and the
  resume path (a sweep killed halfway restarts with its completed
  points already paid for);
* the remaining points fan out through a pluggable
  :class:`~repro.exp.backend.ExecutionBackend` (``serial``, ``pool``,
  or ``sharded`` — see :mod:`repro.exp.backend`); with no backend
  named, ``workers=1`` runs serially in-process (plain tracebacks,
  easy pdb) and ``workers>1`` uses the process pool, preserving the
  pre-backend defaults exactly;
* results stream back in completion order through :meth:`stream`, each
  one written to the cache the moment it lands, or arrive sorted by
  point index from :meth:`run`;
* each execution is one :class:`SweepCall` holding that call's own
  state (cache hits, pending points, trace id); the serving tier's
  :class:`~repro.serve.SweepService` drives the same object, so there
  is one point-level contract.

Every payload — computed in-process, computed in a worker, or read from
the cache — passes through one JSON canonicalization, so all the
execution paths are byte-identical and the differential tests can
assert ``render_json(cold) == render_json(warm) == render_json(serial)``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from ..obs.events import new_trace_id
from .backend import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    make_backend,
)
from .cache import NullCache, ResultCache
from .spec import ExperimentSpec, SweepPoint, point_hash


class PayloadSerializationError(TypeError):
    """A point function returned a payload that is not strict JSON.

    The engine's whole identity story — content-addressed cache
    entries, bit-identical replay, cross-process transport — rests on
    payloads surviving a strict JSON round trip.  ``repr``-stringifying
    offenders (the old behavior) silently produced values that changed
    with Python versions and never compared equal to a recomputation,
    so now the offense is named and raised at the source.
    """

    def __init__(self, experiment: str, path: str, value: Any) -> None:
        self.experiment = experiment
        self.path = path
        self.value = value
        super().__init__(
            f"experiment {experiment!r} returned a non-JSON payload: "
            f"key {path!r} holds {value!r} of type {type(value).__name__}; "
            "point functions must return strict-JSON data"
        )


def _find_unserializable(payload: Any, path: str = "$") -> tuple[str, Any]:
    """Locate the first non-JSON value in a payload, depth first."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return path, payload  # scalars only fail for inf/nan
    if isinstance(payload, (list, tuple)):
        for position, value in enumerate(payload):
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                return _find_unserializable(value, f"{path}[{position}]")
        return path, payload
    if isinstance(payload, dict):
        for key, value in payload.items():
            if not isinstance(key, str):
                return f"{path}.{key!r}", key
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                return _find_unserializable(value, f"{path}.{key}")
        return path, payload
    return path, payload


def _canonical_payload(payload: Any, *, experiment: str = "") -> Any:
    """One strict JSON round trip: the engine's single output form."""
    try:
        text = json.dumps(payload, sort_keys=True)
    except (TypeError, ValueError) as exc:
        path, value = _find_unserializable(payload)
        raise PayloadSerializationError(experiment, path, value) from exc
    return json.loads(text)


def _execute_task(task: tuple[int, str, str]) -> tuple[int, Any, float]:
    """Worker entry point: run one point, return (index, payload, secs).

    Top-level (picklable) and self-contained: parameters travel as JSON
    text, and the registry lazily imports the built-in experiments, so
    this works identically under fork, spawn, and in-process execution.
    """
    index, experiment, params_json = task

    from . import registry

    started = time.perf_counter()
    payload = registry.execute(experiment, json.loads(params_json))
    elapsed = time.perf_counter() - started
    return index, _canonical_payload(payload, experiment=experiment), elapsed


@dataclass(frozen=True)
class PointOutcome:
    """One completed sweep point."""

    index: int
    params: dict[str, Any]
    payload: Any
    cached: bool
    elapsed: float = 0.0


@dataclass
class SweepResult:
    """Everything one sweep execution produced, ordered by point index."""

    spec: ExperimentSpec
    outcomes: list[PointOutcome] = field(default_factory=list)
    workers: int = 1
    wall_time: float = 0.0
    backend: str = "serial"
    #: the fleet-trace id this sweep's events were logged under (see
    #: :mod:`repro.obs.events`); deliberately *not* part of
    #: :meth:`to_dict` — rendered output stays bit-identical across
    #: backends and replays, which the differential tests assert.
    trace_id: str = ""

    @property
    def payloads(self) -> list[Any]:
        return [outcome.payload for outcome in self.outcomes]

    @property
    def cached_points(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def computed_points(self) -> int:
        return len(self.outcomes) - self.cached_points

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "backend": self.backend,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "cached_points": self.cached_points,
            "computed_points": self.computed_points,
            "results": self.payloads,
        }


class SweepCall:
    """One execution of a spec: its cache probe, then its residual points.

    Constructing one probes the cache.  It is never shared between calls,
    so one runner (or service) can drive overlapping sweeps.  Every
    driver — :meth:`SweepRunner.stream`, :meth:`SweepRunner.run` and
    the serving tier — goes through the same three steps: take
    :attr:`cached`, feed each of :meth:`completions` to :meth:`complete`,
    and build the :meth:`result`.  :meth:`completions` touches no
    cache, so it may run in another thread; :meth:`complete` is the
    one place a computed point is written to the cache.
    """

    def __init__(
        self,
        runner: "SweepRunner",
        spec: ExperimentSpec,
        indices: Optional[Iterable[int]] = None,
    ) -> None:
        self.started = time.perf_counter()
        self.runner = runner
        self.spec = spec
        wanted = None if indices is None else set(indices)
        self.cached: list[PointOutcome] = []
        self.pending: dict[int, tuple[SweepPoint, str]] = {}
        for point in spec.points():
            if wanted is not None and point.index not in wanted:
                continue
            key = point_hash(spec.experiment, point)
            payload = None if runner.refresh else runner.cache.get(key)
            if payload is not None:
                self.cached.append(PointOutcome(
                    index=point.index,
                    params=point.as_dict(),
                    payload=payload,
                    cached=True,
                ))
            else:
                self.pending[point.index] = (point, key)
        #: one trace per computation: every fleet event the backend (and
        #: its workers) log for this batch carries it; a fully cached
        #: call touches no backend and has none
        self.trace_id = new_trace_id() if self.pending else ""
        self.backend = (
            runner.backend.name if runner.backend is not None else "serial"
        )

    def completions(self) -> Iterator[tuple[int, Any, float]]:
        """The backend's ``(index, payload, elapsed)`` stream for the
        pending points, in completion order."""
        if not self.pending:
            return
        backend, owned = self.runner._backend_for(len(self.pending))
        self.backend = backend.name
        tasks = [
            (index, self.spec.experiment,
             json.dumps(point.as_dict(), sort_keys=True))
            for index, (point, _) in self.pending.items()
        ]
        keys = [key for _, key in self.pending.values()]
        try:
            yield from backend.run_tasks(
                tasks, batch_id=self.spec.spec_hash(), keys=keys,
                trace_id=self.trace_id,
            )
        finally:
            if owned:
                backend.shutdown()

    def complete(self, index: int, payload: Any, elapsed: float) -> PointOutcome:
        """Write one computed point to the cache; return its outcome."""
        point, key = self.pending[index]
        params = point.as_dict()
        self.runner.cache.put(
            key,
            payload,
            meta={"experiment": self.spec.experiment, "point": params},
        )
        return PointOutcome(
            index=index,
            params=params,
            payload=payload,
            cached=False,
            elapsed=elapsed,
        )

    def outcomes(self) -> Iterator[PointOutcome]:
        """Cached points first, then computed ones as they complete."""
        yield from self.cached
        for completion in self.completions():
            yield self.complete(*completion)

    def result(self, outcomes: list[PointOutcome]) -> SweepResult:
        """The call's :class:`SweepResult`, outcomes sorted by index."""
        runner = self.runner
        if runner.backend is not None:
            workers = runner.backend.workers
        else:
            workers = runner._effective_workers(max(1, self.spec.n_points))
        return SweepResult(
            spec=self.spec,
            outcomes=sorted(outcomes, key=lambda outcome: outcome.index),
            workers=workers,
            wall_time=time.perf_counter() - self.started,
            backend=self.backend,
            trace_id=self.trace_id,
        )


class SweepRunner:
    """Executes specs: cache lookup, then backend fan-out.

    Parameters
    ----------
    workers:
        Degree of parallelism.  ``None`` means the CPU count; ``1``
        means run every point in-process (no pool, plain tracebacks,
        easy pdb).
    cache:
        A :class:`~repro.exp.cache.ResultCache`, ``None`` for the
        default on-disk location, or :class:`~repro.exp.cache.NullCache`
        to disable caching entirely.
    refresh:
        Ignore existing cache entries (but still write fresh ones) —
        the CLI's ``--refresh``.
    backend:
        ``None`` (choose ``serial``/``pool`` from ``workers``, the
        pre-backend defaults), a registered backend name (the runner
        owns its lifecycle), or an :class:`ExecutionBackend` instance
        (the caller owns its lifecycle).
    shards:
        Worker-process count for the ``sharded`` backend; defaults to
        ``workers``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        *,
        refresh: bool = False,
        backend: Union[None, str, ExecutionBackend] = None,
        shards: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers={workers} is invalid; need >= 1")
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.refresh = refresh
        self.shards = shards
        self._owns_backend = isinstance(backend, str)
        if isinstance(backend, str):
            self.backend: Optional[ExecutionBackend] = make_backend(
                backend, workers=workers, shards=shards or workers
            )
        else:
            self.backend = backend

    def _effective_workers(self, pending: int) -> int:
        workers = self.workers or os.cpu_count() or 1
        return max(1, min(workers, pending))

    def _backend_for(self, pending: int) -> tuple[ExecutionBackend, bool]:
        """The backend to fan out over, and whether this call owns it."""
        if self.backend is not None:
            return self.backend, self._owns_backend
        workers = self._effective_workers(pending)
        if workers == 1:
            return SerialBackend(), True
        return PoolBackend(workers), True

    def stream(
        self,
        spec: ExperimentSpec,
        *,
        indices: Optional[Iterable[int]] = None,
    ) -> Iterator[PointOutcome]:
        """Yield outcomes as points complete (cached points first).

        Each computed point is written to the cache before it is
        yielded, so breaking out of the iterator — or being killed —
        leaves a resumable partial sweep behind.  ``indices`` restricts
        the sweep to a subset of the grid (the adaptive sampler's
        refinement path).
        """
        yield from SweepCall(self, spec, indices).outcomes()

    def run(
        self,
        spec: ExperimentSpec,
        *,
        on_point: Optional[Callable[[PointOutcome], None]] = None,
        indices: Optional[Iterable[int]] = None,
    ) -> SweepResult:
        """Execute the whole sweep; outcomes come back sorted by index."""
        call = SweepCall(self, spec, indices)
        outcomes: list[PointOutcome] = []
        for outcome in call.outcomes():
            if on_point is not None:
                on_point(outcome)
            outcomes.append(outcome)
        return call.result(outcomes)


def serial_runner() -> SweepRunner:
    """An in-process, uncached runner — pure-function execution of a
    spec, used as the default by library entry points that must not
    touch the filesystem (``figure7_series`` and friends)."""
    return SweepRunner(workers=1, cache=NullCache())
