"""Async sweep execution: the serving tier's shell over the sweep engine.

:class:`SweepService` drives a spec through the same
:class:`~repro.exp.engine.SweepCall` as :class:`~repro.exp.SweepRunner`
— one cache probe, one task and trace-id rule, one cache write per
computed point — so its payloads are the runner's by construction.
What it adds is the asyncio glue for a long-lived server:

* the backend (default: a persistent ``pool``) is created once and
  reused across requests, so a request never pays pool start-up cost;
* only the backend's completion stream runs in a driver thread; each
  completion hops back onto the event loop, where the cache is read and
  written, so the cache's counters see one writer;
* per-point completions reach an ``on_progress`` callback as they land,
  feeding the server's progress streams;
* a worker crash raises :class:`~repro.exp.backend.WorkerCrashError`
  after the backend has rebuilt its pool.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Union

from ..exp.backend import ExecutionBackend, WorkerCrashError, make_backend
from ..exp.cache import ResultCache
from ..exp.engine import PointOutcome, SweepCall, SweepRunner
from ..exp.spec import ExperimentSpec

__all__ = ["SweepService", "WorkerCrashError"]


class SweepService:
    """Executes specs for the server: cache probe, then backend fan-out.

    Parameters
    ----------
    workers:
        Backend parallelism (``None`` = CPU count).
    cache:
        The content store shared with every other execution path —
        a :class:`~repro.exp.ResultCache` (default on-disk location
        when ``None``) or :class:`~repro.exp.NullCache`.
    refresh:
        Recompute even when a point is cached (still writes fresh
        entries) — the server's ``--refresh``.
    backend:
        A registered backend name (default ``"pool"``) or a
        caller-constructed :class:`ExecutionBackend` instance.
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
        backend: Union[str, ExecutionBackend] = "pool",
        shards: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers={workers} is invalid; need >= 1")
        if isinstance(backend, str):
            backend = make_backend(
                backend, workers=workers, shards=shards or workers
            )
        self.runner = SweepRunner(workers, cache, refresh=refresh,
                                  backend=backend)
        self.backend = backend
        self.workers = backend.workers
        self.cache = self.runner.cache
        self._drivers: Optional[ThreadPoolExecutor] = None

    @property
    def pool_rebuilds(self) -> int:
        """Pool rebuilds after worker crashes (surfaced in /stats)."""
        return getattr(self.backend, "rebuilds", 0)

    # -- lifecycle -----------------------------------------------------
    def warm(self) -> None:
        """Acquire execution resources now, before traffic arrives.

        For the pool backend this forks every worker process from a
        quiescent parent — forking lazily under load would duplicate
        whatever connection fds happen to be open into the children and
        put the fork cost on the first request's latency.
        """
        self.backend.start()

    def _driver_pool(self) -> ThreadPoolExecutor:
        if self._drivers is None:
            self._drivers = ThreadPoolExecutor(
                max_workers=max(8, 2 * self.workers),
                thread_name_prefix="sweep-drive",
            )
        return self._drivers

    def shutdown(self) -> None:
        self.backend.shutdown()
        if self._drivers is not None:
            self._drivers.shutdown(wait=False, cancel_futures=True)
            self._drivers = None

    # -- execution -----------------------------------------------------
    async def execute(
        self,
        spec: ExperimentSpec,
        on_progress: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> dict[str, Any]:
        """Run a whole spec; returns :meth:`SweepResult.to_dict` plus
        the sweep's ``trace_id`` (``""`` when every point was cached).

        ``results`` is ordered by point index and byte-identical to a
        direct runner execution of the same spec.
        """
        call = SweepCall(self.runner, spec)
        outcomes: list[PointOutcome] = []

        def land(outcome: PointOutcome) -> None:
            outcomes.append(outcome)
            if on_progress is not None:
                elapsed = {} if outcome.cached else {"elapsed": outcome.elapsed}
                on_progress({"event": "point", "index": outcome.index,
                             "cached": outcome.cached, **elapsed,
                             "done": len(outcomes), "total": spec.n_points})

        for outcome in call.cached:
            land(outcome)
        if call.pending:
            loop = asyncio.get_running_loop()
            queue: asyncio.Queue = asyncio.Queue()

            def drive() -> None:
                try:
                    for completion in call.completions():
                        loop.call_soon_threadsafe(queue.put_nowait, completion)
                finally:
                    loop.call_soon_threadsafe(queue.put_nowait, None)

            driver = loop.run_in_executor(self._driver_pool(), drive)
            while (completion := await queue.get()) is not None:
                land(call.complete(*completion))
            await driver  # re-raises the backend's error, if any
        return {**call.result(outcomes).to_dict(), "trace_id": call.trace_id}
