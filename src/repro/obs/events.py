"""The fleet event log: cross-process structured tracing.

PRs 7-9 turned the host system into a distributed machine — an asyncio
serve tier, pool workers, filesystem-coordinated shard workers with
lease stealing and driver resume — and this module is its black box
recorder.  The design mirrors the simulator's instrumentation rules
one level up:

* **One event, one line.**  A :class:`FleetEvent` is a flat JSON
  object; an :class:`EventLog` keeps the last ``capacity`` events in an
  in-memory ring *and* (when file-backed) appends each one to a
  per-process JSONL file under the batch directory's ``events/``.
  Lines are flushed as written, so a SIGKILLed worker's log ends at
  its true last action — which is exactly what the flight recorder
  needs for a postmortem.
* **One trace per sweep.**  The engine's per-call
  :class:`~repro.exp.engine.SweepCall` (driven by ``SweepRunner`` or
  ``SweepService``) mints a ``trace_id`` when it has points to compute
  and propagates it through the
  :class:`~repro.exp.backend.ExecutionBackend` protocol; shard workers
  read it back out of the batch manifest.  Every event carries
  ``(trace, worker, span, parent)``, so the per-process logs of one
  sweep merge into a single causal timeline
  (:func:`repro.obs.perfetto.fleet_chrome_trace`).
* **Zero dependencies, bounded cost.**  Emission is a dict build, a
  ``json.dumps``, and one buffered write; ``REPRO_FLEET_LOG=0``
  disables everything, and ``benchmarks/bench_backend_scaling.py``
  gates the enabled-path overhead at <= 5% of sharded sweep wall time.

Event vocabulary (the ``kind`` field), by emitter:

==============  ======================================================
driver          ``batch_start``, ``resume``, ``enqueue``, ``spawn``,
                ``respawn``, ``harvest``, ``dump``, ``batch_done``
shard worker    ``worker_start``, ``claim``, ``heartbeat``, ``point``,
                ``steal``, ``result_write``, ``worker_exit``
pool driver     ``batch_start``, ``point``, ``pool_crash``,
                ``pool_rebuild``, ``batch_done``
serve tier      ``request``, ``served``
==============  ======================================================

Block-scoped events use ``span = "b<block>.g<generation>"`` so a
stolen block's re-execution (generation bumped) is linkable to the
steal that re-enqueued it; point events get a fresh span with the
block span as ``parent``.

The flight recorder (:func:`flight_dump`) snapshots the last-N merged
events into a timestamped JSON file on three triggers — worker crash,
lease steal, driver resume — and ``repro fleet dump`` pretty-prints
one.  :func:`iter_batch_events` is the single reader for a batch
directory: it merges the per-process JSONL logs *and* the legacy
``steal-*.json`` / ``respawn-*.json`` audit files older batch dirs
contain, so pre-upgrade state stays inspectable.
"""

from __future__ import annotations

import io
import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

#: Schema tag written into every flight dump.
DUMP_SCHEMA = "repro.fleet.dump/1"

#: Keys every serialized event carries (everything else is a field).
RESERVED_KEYS = ("ts", "kind", "trace", "worker", "span", "parent")

#: Default ring capacity — the flight recorder's lookback window.
DEFAULT_CAPACITY = 512

_LEGACY_STEAL_RE = re.compile(r"^steal-b(\d+)-g(\d+)\.json$")
_LEGACY_RESPAWN_RE = re.compile(r"^respawn-(\d+)\.json$")


def fleet_logging_enabled() -> bool:
    """The global kill switch: ``REPRO_FLEET_LOG=0`` disables emission."""
    return os.environ.get("REPRO_FLEET_LOG", "1") != "0"


def new_trace_id() -> str:
    """A sweep-level trace id: 16 hex chars, random."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A span id: 8 hex chars, random."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class FleetEvent:
    """One lifecycle event in the distributed execution plane."""

    ts: float
    kind: str
    trace: str = ""
    worker: str = ""
    span: Optional[str] = None
    parent: Optional[str] = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON form: reserved keys first, then the free fields."""
        out: dict[str, Any] = {
            "ts": self.ts,
            "kind": self.kind,
            "trace": self.trace,
            "worker": self.worker,
        }
        if self.span is not None:
            out["span"] = self.span
        if self.parent is not None:
            out["parent"] = self.parent
        for key, value in self.fields.items():
            if key not in RESERVED_KEYS:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "FleetEvent":
        fields = {k: v for k, v in raw.items() if k not in RESERVED_KEYS}
        return cls(
            ts=float(raw.get("ts", 0.0)),
            kind=str(raw.get("kind", "")),
            trace=str(raw.get("trace", "")),
            worker=str(raw.get("worker", "")),
            span=raw.get("span"),
            parent=raw.get("parent"),
            fields=fields,
        )


def validate_event(raw: dict[str, Any]) -> dict[str, Any]:
    """Schema-check one serialized event; raises ``ValueError``.

    The contract CI asserts on every log line: ``ts`` is a finite
    number, ``kind``/``worker`` are non-empty strings, ``trace`` is a
    string, ``span``/``parent`` are strings when present, and the
    whole object survives a JSON round trip.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"event must be an object, got {type(raw).__name__}")
    ts = raw.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
            or ts != ts or ts in (float("inf"), float("-inf")):
        raise ValueError(f"event ts must be a finite number, got {ts!r}")
    for key in ("kind", "worker"):
        value = raw.get(key)
        if not isinstance(value, str) or not value:
            raise ValueError(f"event {key} must be a non-empty string, "
                             f"got {value!r}")
    if not isinstance(raw.get("trace", ""), str):
        raise ValueError(f"event trace must be a string, "
                         f"got {raw.get('trace')!r}")
    for key in ("span", "parent"):
        if key in raw and not isinstance(raw[key], str):
            raise ValueError(f"event {key} must be a string when present")
    try:
        json.dumps(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"event is not strict JSON: {exc}") from None
    return raw


class EventLog:
    """Ring buffer plus optional append-only JSONL sink; thread-safe.

    One instance per process per sweep.  ``path=None`` keeps events in
    memory only (the pool backend's mode — there is no batch directory
    to write into); a path makes every emission durable line-by-line.
    A disabled log (constructor flag or ``REPRO_FLEET_LOG=0``) turns
    :meth:`emit` into a no-op returning ``None``.
    """

    def __init__(
        self,
        trace: str,
        worker: str,
        *,
        path: Optional[os.PathLike] = None,
        capacity: int = DEFAULT_CAPACITY,
        enabled: Optional[bool] = None,
    ) -> None:
        self.trace = trace
        self.worker = worker
        self.path = Path(path) if path is not None else None
        self.enabled = (
            fleet_logging_enabled() if enabled is None else bool(enabled)
        )
        self._ring: deque[FleetEvent] = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        self._sink: Optional[io.TextIOWrapper] = None

    def _ensure_sink(self) -> Optional[io.TextIOWrapper]:
        if self.path is None:
            return None
        if self._sink is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.path, "a", encoding="utf-8")
        return self._sink

    def emit(
        self,
        kind: str,
        *,
        span: Optional[str] = None,
        parent: Optional[str] = None,
        **fields: Any,
    ) -> Optional[FleetEvent]:
        """Record one event (ring + sink); returns it, or None if off."""
        if not self.enabled:
            return None
        event = FleetEvent(
            ts=time.time(),
            kind=kind,
            trace=self.trace,
            worker=self.worker,
            span=span,
            parent=parent,
            fields=fields,
        )
        line = json.dumps(event.to_dict(), sort_keys=True)
        with self._lock:
            self._ring.append(event)
            sink = self._ensure_sink()
            if sink is not None:
                try:
                    sink.write(line + "\n")
                    sink.flush()
                except OSError:
                    pass  # a torn-down batch dir must not kill the worker
        return event

    def tail(self, limit: Optional[int] = None) -> list[FleetEvent]:
        """The last ``limit`` ring events, oldest first."""
        with self._lock:
            events = list(self._ring)
        if limit is not None and limit >= 0:
            events = events[-limit:]
        return events

    def close(self) -> None:
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None:
            try:
                sink.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------


def read_events(path: os.PathLike) -> list[FleetEvent]:
    """Parse one JSONL event log; tolerant of a torn final line.

    A worker killed mid-write leaves at most one malformed trailing
    line — skipped, never fatal — so postmortem reads always succeed.
    """
    events: list[FleetEvent] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(raw, dict):
                    events.append(FleetEvent.from_dict(raw))
    except OSError:
        pass
    return events


def _legacy_events(events_dir: Path) -> Iterator[FleetEvent]:
    """Pre-upgrade audit files (``steal-*.json`` / ``respawn-*.json``)
    surfaced as fleet events, so old batch dirs read uniformly."""
    try:
        names = sorted(os.listdir(events_dir))
    except OSError:
        return
    for name in names:
        legacy_kind = None
        if _LEGACY_STEAL_RE.match(name):
            legacy_kind = "steal"
        elif _LEGACY_RESPAWN_RE.match(name):
            legacy_kind = "respawn"
        if legacy_kind is None:
            continue
        try:
            with open(events_dir / name, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(raw, dict):
            continue
        fields = {
            k: v for k, v in raw.items()
            if k not in ("event", "at", "thief", "worker")
        }
        fields["legacy"] = True
        worker = raw.get("thief", raw.get("worker"))
        yield FleetEvent(
            ts=float(raw.get("at", 0.0)),
            kind=str(raw.get("event", legacy_kind)),
            trace="",
            worker=f"shard-{worker}" if worker is not None else "unknown",
            span=(
                f"b{raw['block']}.g{raw['gen']}"
                if "block" in raw and "gen" in raw else None
            ),
            fields=fields,
        )


def iter_batch_events(
    batch_dir: os.PathLike, *, trace: Optional[str] = None
) -> list[FleetEvent]:
    """Every event of a batch directory, merged and time-ordered.

    Reads all per-process ``events/*.jsonl`` logs plus any legacy
    audit files; ``trace`` filters to one sweep (logs accumulate
    across resumes — each resume is a fresh trace in the same dir).
    """
    events_dir = Path(batch_dir) / "events"
    events: list[FleetEvent] = []
    try:
        logs = sorted(events_dir.glob("*.jsonl"))
    except OSError:
        logs = []
    for log in logs:
        events.extend(read_events(log))
    events.extend(_legacy_events(events_dir))
    if trace is not None:
        events = [e for e in events if e.trace == trace or e.trace == ""]
    events.sort(key=lambda e: (e.ts, e.worker, e.kind))
    return events


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------


def flight_dump(
    directory: os.PathLike,
    reason: str,
    events: Iterable[FleetEvent],
    *,
    trace: str = "",
    limit: int = 200,
    extra: Optional[dict[str, Any]] = None,
) -> Path:
    """Write the last-``limit`` events as a timestamped crash dump.

    Returns the dump path, ``<directory>/crash-<reason>-<ns>.json``.
    The payload is self-describing (:data:`DUMP_SCHEMA`) so ``repro
    fleet dump`` and CI's schema check need no side channel.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ordered = sorted(events, key=lambda e: e.ts)[-max(0, limit):]
    payload: dict[str, Any] = {
        "schema": DUMP_SCHEMA,
        "reason": reason,
        "trace": trace,
        "written_at": time.time(),
        "events": [event.to_dict() for event in ordered],
    }
    if extra:
        payload.update(extra)
    path = directory / f"crash-{reason}-{time.time_ns()}.json"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)
    return path


def read_dump(path: os.PathLike) -> dict[str, Any]:
    """Load and schema-check one flight dump."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != DUMP_SCHEMA:
        raise ValueError(
            f"{path}: not a fleet flight dump "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    for raw in payload.get("events", ()):
        validate_event(raw)
    return payload


def default_dump_dir() -> Path:
    """``$REPRO_FLEET_DUMPS`` if set, else ``<cache base>/repro/dumps``.

    Used by backends with no batch directory to write into (the pool
    backend dumps here when a worker crashes).
    """
    env = os.environ.get("REPRO_FLEET_DUMPS")
    if env:
        return Path(env)
    from ..exp.cache import default_cache_root

    return default_cache_root().parent / "dumps"
