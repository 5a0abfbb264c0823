"""Chrome trace-event JSON export (loadable in ``ui.perfetto.dev``).

Maps the simulator's cycle trace onto the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_:

* one *process* per component class — PEs, network, memory — with one
  *thread* (track) per PE, per switch stage, and per MM;
* a complete ("X") slice per request on its PE track spanning
  issue → reply, and one per forward-stage residency on the stage
  tracks (enqueue → departure to the next stage);
* combining as flow events: an edge from the ``combine`` point (where a
  request was absorbed) to the matching ``decombine`` point (where its
  reply was regenerated on the way back), so the wait-buffer dormancy
  of every absorbed request is a visible arc;
* memory service as slices on the MM tracks.

One simulated cycle is exported as one microsecond — Perfetto's native
unit — so cycle arithmetic survives the UI's measurements verbatim.

Requests come from the join :func:`repro.obs.spans.reconstruct_spans`
uses, run *tolerantly*: a ring-buffered suffix still renders (a request
whose ``issue`` was dropped keeps its stage, memory and decombine
slices, without a PE slice), so ``repro trace --chrome`` stays usable
for eyeballing long runs.  The truncation itself is surfaced in the
trace metadata.

The fleet trace (:func:`fleet_chrome_trace`) is built into the same
document shape, and :func:`write_chrome_trace` writes either.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional, Sequence

from ..instrumentation import TraceEvent
from .events import FleetEvent
from .spans import _join

#: Exported process ids (Perfetto groups tracks by pid).
PID_PES = 1
PID_NETWORK = 2
PID_MEMORY = 3

#: A named track: (pid, process name, tid, thread name); a tid of None
#: names the process alone.
_Track = tuple[int, str, Optional[int], Optional[str]]


def _document(tracks: Iterable[_Track], events: list[dict[str, Any]],
              other: dict[str, Any]) -> dict[str, Any]:
    """The one Chrome trace-event document both exports build: the
    track names as metadata, then ``events`` (slices, flows, instants)
    in the order given."""
    meta: list[dict[str, Any]] = []
    for pid, name, tid, tname in tracks:
        meta.append({"ph": "M", "pid": pid, "name": "process_name",
                     "args": {"name": name}})
        if tid is not None:
            meta.append({"ph": "M", "pid": pid, "tid": tid,
                         "name": "thread_name", "args": {"name": tname}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms",
            "otherData": other}


def _slice(pid: int, tid: int, name: str, ts: int, dur: int,
           cat: str, args: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    event: dict[str, Any] = {
        "ph": "X", "pid": pid, "tid": tid, "name": name,
        "ts": ts, "dur": max(1, dur), "cat": cat,
    }
    if args:
        event["args"] = args
    return event


def _flow(ph: str, pid: int, tid: int, ts: int, flow_id: int, name: str,
          cat: str) -> dict[str, Any]:
    """One end of a flow arc: ``ph`` "s" starts it, "f" ends it on the
    enclosing slice."""
    event: dict[str, Any] = {"ph": ph, "pid": pid, "tid": tid, "ts": ts,
                             "id": flow_id, "name": name, "cat": cat}
    if ph == "f":
        event["bp"] = "e"
    return event


def write_chrome_trace(path: str, document: dict[str, Any]) -> None:
    """Write a :func:`chrome_trace` or :func:`fleet_chrome_trace`
    document to ``path`` as compact JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))


def chrome_trace(
    events: Sequence[TraceEvent], *, dropped: int = 0
) -> dict[str, Any]:
    """Build the Chrome trace-event JSON document for a cycle trace."""
    slices: list[dict[str, Any]] = []
    pes: set[int] = set()
    stages: set[int] = set()
    mms: set[int] = set()
    for span in _join(events, strict=False).values():
        tag = span.tag
        if span.issued_cycle is not None:
            pes.add(span.pe)
            end = span.reply_cycle
            if end is None:  # still in flight: up to its last event
                end = max(c for c in (
                    span.issued_cycle, span.combined_cycle,
                    span.mm_serve_cycle, span.decombine_cycle,
                    *(hop.cycle for hop in span.hops)) if c is not None)
            slices.append(_slice(
                PID_PES, span.pe, f"req {tag}", span.issued_cycle,
                end - span.issued_cycle, "request",
                args={"tag": tag, "mm": span.mm},
            ))
        # A hop lasts until the next forward point: the next stage's
        # enqueue, the absorption, or the memory's service.
        departures = [hop.cycle for hop in span.hops[1:]]
        departures.append(span.combined_cycle if span.combined else
                          span.mm_serve_cycle)
        for hop, depart in zip(span.hops, departures):
            if hop.stage is None:
                continue
            stages.add(hop.stage)
            if depart is None:
                depart = hop.cycle + 1
            slices.append(_slice(
                PID_NETWORK, hop.stage, f"req {tag}", hop.cycle,
                depart - hop.cycle, "forward", args={"tag": tag},
            ))
        if span.combined_stage is not None:
            stages.add(span.combined_stage)
            slices.append(_slice(
                PID_NETWORK, span.combined_stage, f"combine {tag}",
                span.combined_cycle, 1, "combining",
                args={"tag": tag, "into": span.combined_into},
            ))
            slices.append(_flow("s", PID_NETWORK, span.combined_stage,
                                span.combined_cycle, tag, "combined",
                                "combining"))
        if span.mm_serve_cycle is not None and span.mm is not None:
            mms.add(span.mm)
            slices.append(_slice(
                PID_MEMORY, span.mm, f"serve {tag}", span.mm_serve_cycle, 1,
                "memory", args={"tag": tag},
            ))
        if span.decombine_stage is not None:
            stages.add(span.decombine_stage)
            slices.append(_slice(
                PID_NETWORK, span.decombine_stage, f"decombine {tag}",
                span.decombine_cycle, 1, "combining",
                args={"tag": tag, "reply_of": span.combined_into},
            ))
            slices.append(_flow("f", PID_NETWORK, span.decombine_stage,
                                span.decombine_cycle, tag, "combined",
                                "combining"))

    tracks: list[_Track] = [(PID_PES, "PEs", None, None),
                           (PID_NETWORK, "network", None, None),
                           (PID_MEMORY, "memory", None, None)]
    tracks += [(PID_PES, "PEs", pe, f"PE {pe}") for pe in sorted(pes)]
    tracks += [(PID_NETWORK, "network", stage, f"stage {stage}")
               for stage in sorted(stages)]
    tracks += [(PID_MEMORY, "memory", mm, f"MM {mm}") for mm in sorted(mms)]
    slices.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return _document(tracks, slices, {
        "source": "repro cycle trace (1 cycle = 1us)",
        "events": len(events),
        "dropped": dropped,
    })


# ---------------------------------------------------------------------------
# fleet traces: the distributed execution plane as one timeline
# ---------------------------------------------------------------------------
#
# The same Trace Event Format, one level up: instead of PEs and switch
# stages, the *processes* of a sharded sweep — the driver plus every
# shard (or pool) worker — each get a Perfetto process track, built by
# merging their per-process fleet event logs (repro.obs.events) on the
# shared trace id.  A stolen block renders as a flow arc from the
# ``steal`` event on the thief's track to the bumped-generation
# ``claim`` on whichever worker re-executes it — the fleet-level
# combine/decombine edge.

#: tid used for every fleet track (one thread per process track).
_FLEET_TID = 0


def _fleet_us(ts: float, t0: float) -> int:
    return max(0, int(round((ts - t0) * 1_000_000)))


def _worker_order(workers: set[str]) -> list[str]:
    """driver first, then shard/pool workers in numeric order."""
    def rank(name: str) -> tuple[int, str, int]:
        if name == "driver":
            return (0, "", 0)
        head, _, tail = name.rpartition("-")
        if tail.isdigit():
            return (1, head, int(tail))
        return (2, name, 0)
    return sorted(workers, key=rank)


def fleet_chrome_trace(
    events: Sequence[FleetEvent], *, trace: Optional[str] = None
) -> dict[str, Any]:
    """Merge fleet events into one Chrome trace-event document.

    One Perfetto *process* per fleet worker (``driver``, ``shard-N``,
    ``pool``, ...); slices are reconstructed pairwise — ``claim`` →
    ``result_write`` frames a block slice, a ``point`` event (which
    carries its duration) becomes a ``[ts - dur, ts]`` slice — and
    ``steal`` → bumped-generation ``claim`` pairs become flow arcs
    keyed by block id.  ``trace`` filters a multi-resume log to one
    sweep's events.
    """
    if trace is not None:
        events = [e for e in events if e.trace == trace or not e.trace]
    events = sorted(events, key=lambda e: e.ts)
    if not events:
        return _document([], [], {"source": "repro fleet trace",
                                  "events": 0})

    t0 = events[0].ts
    workers = {e.worker for e in events if e.worker}
    ordered = _worker_order(workers)
    pid_of = {name: pid for pid, name in enumerate(ordered, start=1)}

    trace_events: list[dict[str, Any]] = []
    open_blocks: dict[tuple[str, str], FleetEvent] = {}
    flow_open: dict[int, int] = {}  # block id -> steal ts (us)
    for event in events:
        pid = pid_of.get(event.worker)
        if pid is None:
            continue
        ts = _fleet_us(event.ts, t0)
        kind = event.kind
        if kind == "claim" and event.span is not None:
            open_blocks[(event.worker, event.span)] = event
            generation = int(event.fields.get("gen", 1))
            block = event.fields.get("block")
            if generation > 1 and isinstance(block, int) \
                    and block in flow_open:
                trace_events.append(_flow("f", pid, _FLEET_TID, ts, block,
                                          "stolen", "steal"))
                del flow_open[block]
        elif kind == "result_write" and event.span is not None:
            start = open_blocks.pop((event.worker, event.span), None)
            start_ts = _fleet_us(start.ts, t0) if start is not None else ts
            trace_events.append(_slice(
                pid, _FLEET_TID,
                f"block {event.fields.get('block', '?')}",
                start_ts, ts - start_ts, "block",
                args={**event.fields, "span": event.span},
            ))
        elif kind == "point":
            dur = max(1, int(round(
                float(event.fields.get("dur", 0.0)) * 1_000_000)))
            trace_events.append(_slice(
                pid, _FLEET_TID,
                f"point {event.fields.get('index', '?')}",
                max(0, ts - dur), dur, "point",
                args={**event.fields, "span": event.span or ""},
            ))
        elif kind == "steal":
            block = event.fields.get("block")
            trace_events.append(_slice(
                pid, _FLEET_TID, f"steal b{block}", ts, 1, "steal",
                args=dict(event.fields),
            ))
            if isinstance(block, int):
                trace_events.append(_flow("s", pid, _FLEET_TID, ts, block,
                                          "stolen", "steal"))
                flow_open[block] = ts
        elif kind in ("batch_start", "worker_start"):
            open_blocks[(event.worker, f"__life_{kind}")] = event
        elif kind in ("batch_done", "worker_exit"):
            start_key = (
                event.worker,
                "__life_batch_start" if kind == "batch_done"
                else "__life_worker_start",
            )
            start = open_blocks.pop(start_key, None)
            start_ts = _fleet_us(start.ts, t0) if start is not None else ts
            trace_events.append(_slice(
                pid, _FLEET_TID, event.worker, start_ts,
                ts - start_ts, "lifecycle", args=dict(event.fields),
            ))
        elif kind in ("heartbeat", "spawn", "respawn", "resume",
                      "dump", "harvest", "pool_crash", "pool_rebuild"):
            trace_events.append({
                "ph": "i", "pid": pid, "tid": _FLEET_TID, "ts": ts,
                "name": kind, "s": "t", "cat": "lifecycle",
                "args": dict(event.fields),
            })

    return _document(
        [(pid_of[name], name, _FLEET_TID, name) for name in ordered],
        trace_events,
        {
            "source": "repro fleet trace (1 second = 1e6 us)",
            "events": len(events),
            "workers": ordered,
            "trace": trace or "",
        },
    )
