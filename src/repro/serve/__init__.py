"""``repro.serve`` — simulation-as-a-service.

The Ultracomputer's signature mechanism is *combining*: when two
requests for the same memory location meet inside the network, a switch
merges them into one and decombines the single reply on the way back
(PAPER.md section 3.1).  This package applies the identical idea one
layer up, at the serving tier: a long-lived asyncio HTTP/JSON front end
accepts :class:`~repro.exp.ExperimentSpec` submissions and

* **coalesces** identical concurrent submissions through a
  Pending-Interest Table (:class:`PendingTable`) keyed by the spec's
  content hash — the first request triggers the computation, every
  later identical one awaits the same future (the switch's ToMM queue,
  in software);
* **serves repeats** from the content-addressed
  :class:`~repro.exp.ResultCache` (the content store — a pure disk
  read, no worker touched);
* **fans out** the residual distinct work over a persistent process
  pool (:class:`SweepService`), streaming per-point progress to every
  subscribed client;
* **observes itself**: each finished request is counted in
  :class:`ServeStats`, which reports p50/p99 service latency and the
  measured coalescing ratio through ``GET /stats``, and is logged once
  as a ``served`` fleet event.

Entry points::

    python -m repro serve --port 8600 --workers 4     # boot the server
    curl -s localhost:8600/healthz                     # liveness
    curl -s -XPOST localhost:8600/run -d @spec.json    # run a sweep

The architecture is the Pending-Interest-Table pattern from
information-centric networking (PIT dedup + content-store cache +
layered queues), which the historical survey in PAPERS.md identifies as
the modern descendant of the combining network.
"""

from .client import AsyncServeClient, ServeClient, ServeError
from .coalesce import CoalesceOutcome, ManualClock, PendingTable
from .obs import ServeStats
from .server import ServeApp, run_server
from .service import SweepService, WorkerCrashError

__all__ = [
    "AsyncServeClient",
    "CoalesceOutcome",
    "ManualClock",
    "PendingTable",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeStats",
    "SweepService",
    "WorkerCrashError",
    "run_server",
]
