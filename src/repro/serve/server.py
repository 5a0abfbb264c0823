"""The asyncio HTTP/JSON serving front end.

One :class:`ServeApp` wires the three serving-tier pieces together —
:class:`~repro.serve.coalesce.PendingTable` (in-flight dedup),
:class:`~repro.serve.service.SweepService` (content store + persistent
worker pool), :class:`~repro.serve.obs.ServeStats` (request counts) —
behind a small route table:

========================  =============================================
``GET /healthz``          liveness: ``{"ok": true}`` plus uptime
``GET /experiments``      registered point-function names
``GET /stats``            requests, latency percentiles, coalescing ratio,
                          pending-table and pool/cache counters
``POST /run``             run an :class:`~repro.exp.ExperimentSpec`
                          (JSON body: the spec dict, or ``{"spec": ...}``);
                          blocks until the sweep payload is ready
``POST /run?stream=1``    same, but responds with chunked NDJSON:
                          ``accepted``, per-point ``point`` progress
                          events, then the final ``result`` envelope
========================  =============================================

A ``/run`` response carries the full sweep payload **bit-identical to a
direct** :class:`~repro.exp.SweepRunner` **run** of the same spec (the
differential tests and the CI smoke assert the byte parity), plus
serving metadata: ``served_by`` (``computed`` / ``coalesced`` /
``cache``) and the spec hash that keyed the coalescing.

Client disconnects are contained: a handler that dies while its sweep
is pending abandons only its own wait — the computation is owned by the
pending table and still completes into the content store.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from ..exp import registry
from ..exp.spec import ExperimentSpec
from ..instrumentation import MetricSample, _label_key
from ..obs.events import EventLog, new_span_id, new_trace_id
from ..obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..obs.prometheus import render_prometheus
from ..reporting import SCHEMA_VERSION
from .coalesce import PendingTable
from .http import (
    ChunkedNdjsonWriter,
    HttpError,
    Request,
    json_response,
    read_request,
    text_response,
)
from .obs import ServeStats
from .service import SweepService, WorkerCrashError


def _error_payload(status: int, message: str) -> dict[str, Any]:
    return {"schema_version": SCHEMA_VERSION, "error": message,
            "status": status}


class ServeApp:
    """Routes + connection handling around one :class:`SweepService`."""

    def __init__(
        self,
        service: SweepService,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.service = service
        self.table = PendingTable(clock=clock)
        self.stats = ServeStats(clock=clock)
        self.clock = clock
        # The serve tier's own fleet log: an in-memory ring of request
        # lifecycle events (coalesce leader/follower, cache hits) under
        # one server-lifetime trace; each sweep's computation runs under
        # its own trace minted by the service, carried in ``sweep_trace``.
        self.fleet = EventLog(new_trace_id(), "serve")
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        # Fork the worker pool before accepting connections: forking
        # mid-traffic would copy live connection fds into the workers.
        self.service.warm()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.table.shutdown()
        self.service.shutdown()

    # -- connection loop -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    json_response(writer, exc.status,
                                  _error_payload(exc.status, exc.message),
                                  close=True)
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, reader, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away; any pending sweep keeps computing
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            json_response(writer, 200, {
                "ok": True,
                "uptime": self.clock() - self.stats.started_at,
            })
            return request.keep_alive
        if route == ("GET", "/experiments"):
            json_response(writer, 200, {"experiments": registry.available()})
            return request.keep_alive
        if route == ("GET", "/stats"):
            json_response(writer, 200, self._stats_payload())
            return request.keep_alive
        if route == ("GET", "/metrics"):
            text_response(writer, 200, self._metrics_text(),
                          content_type=PROMETHEUS_CONTENT_TYPE)
            return request.keep_alive
        if route == ("POST", "/run"):
            return await self._handle_run(request, writer)
        if request.path in ("/healthz", "/experiments", "/stats",
                            "/metrics", "/run"):
            json_response(writer, 405, _error_payload(
                405, f"{request.method} not allowed on {request.path}"))
            return request.keep_alive
        json_response(writer, 404, _error_payload(
            404, f"no route for {request.path}"))
        return request.keep_alive

    def _stats_payload(self) -> dict[str, Any]:
        payload = self.stats.to_dict()
        payload.update({
            "schema_version": SCHEMA_VERSION,
            "pending": {
                "in_flight": self.table.in_flight,
                "computations": self.table.computations,
                "coalesced": self.table.coalesced,
            },
            "pool": {
                "workers": self.service.workers,
                "rebuilds": self.service.pool_rebuilds,
            },
            "backend": self.service.backend.stats(),
            "cache": {
                **self.service.cache.stats(),
                "disk": self.service.cache.disk_stats(),
            },
        })
        return payload

    def _metrics_text(self) -> str:
        """Prometheus text format: the stats registry plus gauges and
        counters synthesized from the pending table, execution backend,
        and content store — one scrapeable surface for the whole tier."""
        def sample(kind: str, name: str, value: Any,
                   **labels: Any) -> MetricSample:
            return MetricSample(kind, name, _label_key(labels), value)

        samples = list(self.stats.registry.snapshot().samples)
        backend_stats = self.service.backend.stats()
        backend_name = backend_stats.get("backend", "?")
        cache_stats = self.service.cache.stats()
        samples += [
            sample("gauge", "serve.uptime_seconds",
                   self.clock() - self.stats.started_at),
            sample("gauge", "serve.pending_in_flight",
                   self.table.in_flight),
            sample("counter", "serve.computations",
                   self.table.computations),
            sample("counter", "serve.coalesced", self.table.coalesced),
            sample("gauge", "pool.workers", self.service.workers),
            sample("counter", "pool.rebuilds", self.service.pool_rebuilds),
        ]
        for key in ("batches", "tasks", "steals", "respawns"):
            if key in backend_stats:
                samples.append(sample(
                    "counter", f"backend.{key}",
                    int(backend_stats[key]), backend=backend_name,
                ))
        if "execute_s" in backend_stats:
            samples.append(sample(
                "counter", "backend.execute_seconds",
                float(backend_stats["execute_s"]), backend=backend_name,
            ))
        for key in ("hits", "misses", "writes",
                    "bytes_read", "bytes_written"):
            samples.append(sample(
                "counter", f"cache.{key}", int(cache_stats.get(key, 0)),
            ))
        return render_prometheus(samples)

    # -- /run ----------------------------------------------------------
    def _served(self, arrival: float, key: str, status: int,
                served_by: str,
                payload: Optional[dict[str, Any]] = None) -> None:
        """Count a finished request in :attr:`stats` and emit its one
        record, the fleet log's ``served`` event — the serve tier's
        coalesce-leader/-follower/cache/error event, linked to the
        sweep's own trace when one was computed."""
        dur = self.clock() - arrival
        self.stats.record(served_by, dur)
        fields: dict[str, Any] = {
            "key": key, "status": status,
            "served_by": served_by, "dur": dur,
        }
        if payload is not None and payload.get("trace_id"):
            fields["sweep_trace"] = payload["trace_id"]
        self.fleet.emit("served", span=new_span_id(), **fields)

    def _parse_spec(self, request: Request) -> ExperimentSpec:
        payload = request.json()
        if isinstance(payload, dict) and isinstance(payload.get("spec"), dict):
            payload = payload["spec"]
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a spec object")
        try:
            spec = ExperimentSpec.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid spec: {exc}") from None
        if spec.experiment not in registry.available():
            raise HttpError(
                400,
                f"unknown experiment {spec.experiment!r}; "
                f"see GET /experiments",
            )
        return spec

    @staticmethod
    def _classify(role: str, payload: dict[str, Any]) -> str:
        if role == "follower":
            return "coalesced"
        return "cache" if payload["computed_points"] == 0 else "computed"

    def _envelope(
        self, payload: dict[str, Any], served_by: str
    ) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "serve.run",
            "spec": payload["spec"],
            "spec_hash": payload["spec_hash"],
            "served_by": served_by,
            "coalesced": served_by == "coalesced",
            "sweep": {
                "backend": payload.get("backend", "pool"),
                "workers": payload["workers"],
                "wall_time": payload["wall_time"],
                "cached_points": payload["cached_points"],
                "computed_points": payload["computed_points"],
                "trace_id": payload.get("trace_id", ""),
            },
            "results": payload["results"],
        }

    async def _handle_run(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        streaming = request.query.get("stream") in ("1", "true", "yes")
        arrival = self.clock()
        try:
            spec = self._parse_spec(request)
        except HttpError as exc:
            self._served(arrival, "", exc.status, "error")
            json_response(writer, exc.status,
                          _error_payload(exc.status, exc.message))
            return request.keep_alive
        key = spec.spec_hash()

        def compute(publish: Callable[[Any], None]):
            return self.service.execute(spec, on_progress=publish)

        if not streaming:
            try:
                outcome = await self.table.join(key, compute)
            except WorkerCrashError as exc:
                self._served(arrival, key, 500, "error")
                json_response(writer, 500, _error_payload(500, str(exc)))
                return request.keep_alive
            except Exception as exc:
                self._served(arrival, key, 500, "error")
                json_response(writer, 500, _error_payload(
                    500, f"sweep failed: {exc}"))
                return request.keep_alive
            served_by = self._classify(outcome.role, outcome.payload)
            self._served(arrival, key, 200, served_by, outcome.payload)
            json_response(
                writer, 200, self._envelope(outcome.payload, served_by)
            )
            return request.keep_alive

        # -- streaming: chunked NDJSON progress, then the result -------
        events: asyncio.Queue = asyncio.Queue()
        join_task = asyncio.ensure_future(
            self.table.join(key, compute, events=events)
        )
        stream = ChunkedNdjsonWriter(writer, close=not request.keep_alive)
        stream.send({
            "event": "accepted", "spec_hash": key,
            "pending": self.table.is_pending(key),
        })
        try:
            while True:
                event = await events.get()
                if event is None:
                    break
                stream.send(event)
                await writer.drain()
            outcome = await join_task
        except (ConnectionResetError, BrokenPipeError):
            # The computation is table-owned; drop only our wait.
            join_task.cancel()
            self._served(arrival, key, 500, "error")
            raise
        except WorkerCrashError as exc:
            self._served(arrival, key, 500, "error")
            stream.send({"event": "error", "error": str(exc), "status": 500})
            await stream.finish()
            return request.keep_alive
        except Exception as exc:
            self._served(arrival, key, 500, "error")
            stream.send({"event": "error",
                         "error": f"sweep failed: {exc}", "status": 500})
            await stream.finish()
            return request.keep_alive
        served_by = self._classify(outcome.role, outcome.payload)
        self._served(arrival, key, 200, served_by, outcome.payload)
        final = self._envelope(outcome.payload, served_by)
        final["event"] = "result"
        stream.send(final)
        await stream.finish()
        return request.keep_alive


async def _run_app(app: ServeApp, host: str, port: int,
                   ready: Optional[Callable[[ServeApp], None]]) -> None:
    await app.start(host, port)
    if ready is not None:
        ready(app)
    try:
        await app.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await app.stop()


def run_server(
    host: str = "127.0.0.1",
    port: int = 8600,
    *,
    workers: Optional[int] = None,
    cache=None,
    refresh: bool = False,
    backend: str = "pool",
    shards: Optional[int] = None,
    ready: Optional[Callable[[ServeApp], None]] = None,
) -> None:
    """Build the app and serve until interrupted (the CLI entry)."""
    service = SweepService(workers=workers, cache=cache, refresh=refresh,
                           backend=backend, shards=shards)
    app = ServeApp(service)
    try:
        asyncio.run(_run_app(app, host, port, ready))
    except KeyboardInterrupt:
        pass
