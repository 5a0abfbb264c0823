"""Pluggable sweep execution backends.

The execution plane of the sweep engine lives here, behind one small
protocol, so that the batch tier (:class:`~repro.exp.engine.SweepRunner`)
and the serving tier (:class:`~repro.serve.service.SweepService`) share
a single fan-out layer instead of each owning a private pool:

* ``serial`` — run every task in the calling process.  No pool, plain
  tracebacks, easy pdb; the debugger-friendly fallback and the baseline
  for every bit-parity assertion.
* ``pool`` — a persistent ``ProcessPoolExecutor`` (fork-preferred).
  Behavior-preserving port of the pre-refactor multiprocessing path:
  tasks fan out, completions stream back unordered, a crashed worker
  surfaces as :class:`WorkerCrashError` and the pool is rebuilt so the
  next batch starts clean.
* ``sharded`` — N independent worker *processes* coordinated through a
  directory/queue protocol on the filesystem (lease files + atomic
  renames), with work-stealing for stragglers and crash-detection via
  lease expiry.  Because coordination is just files, a sharded sweep
  whose driver is SIGKILLed leaves a harvestable directory behind: the
  restarted driver re-adopts finished blocks before enqueueing the
  remainder.

Backends are named and constructed through a registry mirroring the
kernel (:mod:`repro.core.kernels`) and topology
(:mod:`repro.network.topologies`) registries, which is what lets the
CLI expose ``--backend {serial,pool,sharded}`` without importing any
implementation eagerly.

All three backends consume the same task tuples and emit the same
completion tuples as the engine's ``_execute_task``, so for a given
spec their outputs are *bit-identical* — the differential suite asserts
``render_json(serial) == render_json(pool) == render_json(sharded)``.

Shard directory protocol (one directory per sweep batch)::

    <root>/<batch>/
        manifest.json            # batch id, shard count, block count
        queue/block-B.sS.gG.json # unclaimed blocks of tasks
        leases/block-...json     # claimed blocks; mtime = heartbeat
        results/block-B.json     # finished blocks (atomic writes)
        events/*.jsonl           # per-process structured event logs
        dumps/crash-*.json       # flight-recorder snapshots
        done                     # sentinel: workers may exit

A worker claims a block with ``os.rename(queue/x, leases/x)`` — atomic
on POSIX, so exactly one claimant wins — then heartbeats the lease's
mtime while executing.  A lease whose mtime goes stale past the TTL
means its owner died (or lost the CPU for a very long time): any worker
may *steal* it by renaming the block back into the queue with a bumped
generation number.  Duplicate execution after a steal race is benign:
point functions are deterministic, results are content-addressed, and
the driver deduplicates completions by point index (at-least-once
delivery, exactly-once aggregation).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import shutil
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from ..obs.events import (
    EventLog,
    default_dump_dir,
    flight_dump,
    iter_batch_events,
    new_span_id,
    new_trace_id,
)

#: One unit of work: ``(point index, experiment name, params JSON)``.
Task = tuple[int, str, str]
#: One finished unit: ``(point index, canonical payload, execute seconds)``.
Completion = tuple[int, Any, float]


class WorkerCrashError(RuntimeError):
    """A worker process died mid-task (segfault, OOM-kill, os._exit).

    Raised by backends whose execution pool cannot attribute the death
    to a single task; the pool is rebuilt before this propagates, so
    the next batch runs on a clean pool.
    """


class ShardedSweepError(RuntimeError):
    """The sharded backend could not drive the sweep to completion."""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Callable[..., "ExecutionBackend"]] = {}


def register_backend(
    name: str, factory: Callable[..., "ExecutionBackend"]
) -> None:
    """Register a backend factory under ``name`` (last writer wins).

    The factory is called as ``factory(workers=..., shards=..., **opts)``
    and must tolerate (ignore) the knobs it does not use, so one CLI
    surface can configure any backend.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    _BACKENDS[name] = factory


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def make_backend(
    name: str,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    **opts: Any,
) -> "ExecutionBackend":
    """Construct a registered backend by name."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None
    return factory(workers=workers, shards=shards, **opts)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """The execution-plane protocol: start, run task batches, shut down.

    ``run_tasks`` is the whole contract: take task tuples, yield
    completion tuples in whatever order they finish.  ``start`` is
    idempotent warm-up (pre-fork pools before a listening socket opens);
    ``shutdown`` releases processes but must leave the backend
    restartable — the serving tier keeps one instance for its lifetime,
    the batch tier may start/stop one per sweep.
    """

    name = "?"

    @property
    def workers(self) -> int:
        """Degree of parallelism this backend fans out to."""
        return 1

    def start(self) -> None:  # pragma: no cover - trivial default
        """Idempotently acquire execution resources (pre-fork, mkdir)."""

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        """Release resources; the backend may be started again later."""

    def run_tasks(
        self,
        tasks: Sequence[Task],
        *,
        batch_id: str = "",
        keys: Optional[Sequence[str]] = None,
        trace_id: str = "",
    ) -> Iterator[Completion]:
        """Execute ``tasks``, yielding completions as they finish.

        ``batch_id`` is a stable identity for the batch (the engine
        passes the spec hash) so crash-resumable backends can re-adopt
        partial state; ``keys`` are the per-task content addresses
        (aligned with ``tasks``) used for shard placement; ``trace_id``
        is the sweep-level fleet-trace id minted by the caller — every
        event the backend logs carries it, and backends mint their own
        when it is empty so direct callers still get coherent logs.
        """
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Cumulative obs-style counters for ``/stats`` and the CLI."""
        return {"backend": self.name, "workers": self.workers}


def _execute(task: Task) -> Completion:
    # One definition of "execute a task" shared by every backend; the
    # import is deferred to dodge the engine <-> backend cycle.
    from .engine import _execute_task

    return _execute_task(task)


# ---------------------------------------------------------------------------
# serial
# ---------------------------------------------------------------------------


class SerialBackend(ExecutionBackend):
    """Run every task in the calling process, in submission order."""

    name = "serial"

    def __init__(self, **_ignored: Any) -> None:
        self._tasks = 0
        self._batches = 0
        self._execute_s = 0.0

    def run_tasks(
        self,
        tasks: Sequence[Task],
        *,
        batch_id: str = "",
        keys: Optional[Sequence[str]] = None,
        trace_id: str = "",
    ) -> Iterator[Completion]:
        self._batches += 1
        for task in tasks:
            index, payload, elapsed = _execute(task)
            self._tasks += 1
            self._execute_s += elapsed
            yield index, payload, elapsed

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "workers": 1,
            "batches": self._batches,
            "tasks": self._tasks,
            "execute_s": self._execute_s,
            "queue_wait_s": 0.0,
            "steals": 0,
            "rebuilds": 0,
        }


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is markedly cheaper where available (Linux); spawn elsewhere.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _exit_with_parent(parent: int) -> None:
    """Pool worker initializer: exit as soon as the driver process is
    gone.  A SIGKILLed driver cannot shut its pool down, and the
    workers would otherwise live on, reparented, waiting for tasks."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _warm_task(_: int) -> int:
    """No-op task used to force worker processes into existence."""
    return os.getpid()


class PoolBackend(ExecutionBackend):
    """A persistent process pool: the classic multiprocessing fan-out.

    The executor is created lazily (importing the module costs nothing)
    and survives across batches, which is what gives the serving tier
    its warm-pool latency.  ``BrokenProcessPool`` — a worker died — is
    translated to :class:`WorkerCrashError` after the pool has been
    rebuilt, so one poison request cannot brown-out subsequent ones.
    """

    name = "pool"

    def __init__(
        self, workers: Optional[int] = None, **_ignored: Any
    ) -> None:
        workers = workers if workers is not None else os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers={workers} is invalid; need >= 1")
        self._workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self.rebuilds = 0
        self._tasks = 0
        self._batches = 0
        self._execute_s = 0.0
        self._queue_wait_s = 0.0

    @property
    def workers(self) -> int:
        return self._workers

    def start(self) -> None:
        """Create the pool and pre-fork every worker.

        Forking before any batch runs (for the serving tier: before the
        listening socket opens) keeps copied file descriptors out of
        the children and takes the fork cost off the first request.
        """
        executor = self._ensure_executor()
        list(executor.map(_warm_task, range(self._workers)))

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._workers, mp_context=_pool_context(),
                    initializer=_exit_with_parent, initargs=(os.getpid(),),
                )
            return self._executor

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._executor is broken:
                self._executor = None
                self.rebuilds += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def run_tasks(
        self,
        tasks: Sequence[Task],
        *,
        batch_id: str = "",
        keys: Optional[Sequence[str]] = None,
        trace_id: str = "",
    ) -> Iterator[Completion]:
        executor = self._ensure_executor()
        self._batches += 1
        trace = trace_id or new_trace_id()
        # In-memory ring only: the pool has no batch directory, so the
        # log's sole consumer is the crash dump written on pool death.
        log = EventLog(trace, "pool-driver")
        log.emit("batch_start", batch=batch_id, tasks=len(tasks),
                 workers=self._workers)
        submitted = time.perf_counter()
        futures = {executor.submit(_execute, task): task for task in tasks}
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, payload, elapsed = future.result()
                    self._tasks += 1
                    self._execute_s += elapsed
                    self._queue_wait_s += max(
                        0.0, time.perf_counter() - submitted - elapsed
                    )
                    log.emit("point", span=new_span_id(),
                             index=index, dur=elapsed)
                    yield index, payload, elapsed
            log.emit("batch_done", batch=batch_id, complete=True)
        except BrokenProcessPool as exc:
            victim_task = futures and next(iter(futures.values()))[1]
            log.emit("pool_crash", batch=batch_id,
                     task=str(victim_task),
                     pending=len(pending))
            # The flight dump must land *before* the rebuild: a rebuild
            # that itself wedges would otherwise take the evidence with
            # it.  rebuilds_at_dump pins the ordering for the tests.
            if log.enabled:
                try:
                    flight_dump(
                        default_dump_dir(), "pool-crash", log.tail(),
                        trace=trace,
                        extra={"rebuilds_at_dump": self.rebuilds,
                               "batch": batch_id},
                    )
                except OSError:
                    pass
            self._rebuild(executor)
            log.emit("pool_rebuild", rebuilds=self.rebuilds)
            raise WorkerCrashError(
                f"a worker process crashed while executing "
                f"{victim_task!r}; "
                f"the pool has been rebuilt"
            ) from exc
        except GeneratorExit:
            for future in pending:
                future.cancel()
            raise

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "workers": self._workers,
            "batches": self._batches,
            "tasks": self._tasks,
            "execute_s": self._execute_s,
            "queue_wait_s": self._queue_wait_s,
            "steals": 0,
            "rebuilds": self.rebuilds,
        }


# ---------------------------------------------------------------------------
# sharded
# ---------------------------------------------------------------------------


def default_shard_root() -> Path:
    """``$REPRO_EXP_SHARDS`` if set, else ``<cache base>/repro/shards``."""
    env = os.environ.get("REPRO_EXP_SHARDS")
    if env:
        return Path(env)
    from .cache import default_cache_root

    return default_cache_root().parent / "shards"


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON via temp file + rename (never torn)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=path.parent,
        prefix=f".{path.name[:16]}-",
        suffix=".tmp",
        delete=False,
        encoding="utf-8",
    )
    try:
        with handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> Optional[Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


_BLOCK_RE = re.compile(r"^block-(\d+)\.s(\d+)\.g(\d+)\.json$")


def _shard_of(key: str, shards: int) -> int:
    """Shard placement: the point's content address, mod shard count."""
    return int(key[:8], 16) % shards


class _Heartbeat(threading.Thread):
    """Touches a lease file's mtime until stopped.

    Daemon thread: if the worker is SIGKILLed the thread dies with it,
    the mtime goes stale, and the lease becomes stealable — which is
    the whole crash-detection mechanism.
    """

    def __init__(
        self,
        path: Path,
        interval: float,
        on_beat: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(daemon=True, name=f"lease-heartbeat:{path.name}")
        self._path = path
        self._interval = interval
        self._on_beat = on_beat
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                os.utime(self._path)
            except OSError:
                # Lease stolen out from under us; stop heartbeating.
                # Our execution continues — the duplicate is benign.
                return
            if self._on_beat is not None:
                try:
                    self._on_beat()
                except Exception:
                    pass  # observability must never kill the lease clock

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=2.0)


def _claim_block(
    queue_dir: Path, lease_dir: Path, worker_id: int, shards: int
) -> Optional[tuple[Path, dict]]:
    """Claim one block: own shard first, then anyone's (work-stealing
    of *unstarted* work is just claiming out of shard order)."""
    try:
        names = sorted(n for n in os.listdir(queue_dir)
                       if _BLOCK_RE.match(n))
    except OSError:
        return None
    own = [n for n in names
           if int(_BLOCK_RE.match(n).group(2)) == worker_id % shards]
    others = [n for n in names if n not in set(own)]
    for name in own + others:
        target = lease_dir / name
        try:
            os.rename(queue_dir / name, target)
        except OSError:
            continue  # someone else won the rename
        try:
            os.utime(target)  # lease clock starts at claim, not enqueue
        except OSError:
            pass
        block = _read_json(target)
        if block is None:
            continue
        return target, block
    return None


def _steal_expired(
    lease_dir: Path,
    queue_dir: Path,
    log: EventLog,
    worker_id: int,
    lease_ttl: float,
) -> bool:
    """Re-enqueue one expired lease (bumped generation); True if stolen.

    The steal is recorded in the thief's structured event log (span =
    the re-enqueued block's new generation, parent = the dead lease's
    generation) — what used to be an ad-hoc ``events/steal-*.json``
    file, now one line in the single fleet-event format.
    """
    now = time.time()
    try:
        names = sorted(n for n in os.listdir(lease_dir)
                       if _BLOCK_RE.match(n))
    except OSError:
        return False
    for name in names:
        path = lease_dir / name
        try:
            mtime = path.stat().st_mtime
        except OSError:
            continue
        if now - mtime <= lease_ttl:
            continue
        # Move the corpse to a private name first so exactly one
        # stealer re-enqueues it.
        private = lease_dir / f".steal-{worker_id}-{name}"
        try:
            os.rename(path, private)
        except OSError:
            continue
        block = _read_json(private)
        try:
            os.unlink(private)
        except OSError:
            pass
        if block is None:
            continue
        old_generation = int(block.get("gen", 1))
        generation = old_generation + 1
        block["gen"] = generation
        match = _BLOCK_RE.match(name)
        fresh = f"block-{match.group(1)}.s{match.group(2)}.g{generation}.json"
        _atomic_write_json(queue_dir / fresh, block)
        block_id = int(match.group(1))
        log.emit(
            "steal",
            span=f"b{block_id}.g{generation}",
            parent=f"b{block_id}.g{old_generation}",
            block=block_id,
            gen=generation,
            victim_gen=old_generation,
            stale_s=now - mtime,
        )
        return True
    return False


def _shard_worker_main(
    root: str, worker_id: int, shards: int, lease_ttl: float, poll: float
) -> None:
    """One shard worker: claim blocks, execute, write results, steal.

    Top-level so it survives pickling under spawn; self-contained so an
    orphaned worker (driver SIGKILLed) still drains the queue and exits
    when no claimable or leased work remains.
    """
    base = Path(root)
    queue_dir = base / "queue"
    lease_dir = base / "leases"
    results_dir = base / "results"
    events_dir = base / "events"
    done_file = base / "done"

    manifest = _read_json(base / "manifest.json")
    trace = manifest.get("trace", "") if isinstance(manifest, dict) else ""
    log = EventLog(
        trace, f"shard-{worker_id}",
        path=events_dir / f"shard-{worker_id}.jsonl",
    )
    log.emit("worker_start", pid=os.getpid(), shards=shards)
    exit_reason = "done"

    while not done_file.exists():
        claimed = _claim_block(queue_dir, lease_dir, worker_id, shards)
        if claimed is None:
            if _steal_expired(lease_dir, queue_dir, log,
                              worker_id, lease_ttl):
                continue
            try:
                queue_empty = not any(
                    _BLOCK_RE.match(n) for n in os.listdir(queue_dir))
                leases_empty = not any(
                    _BLOCK_RE.match(n) for n in os.listdir(lease_dir))
            except OSError:
                exit_reason = "torn_down"
                break  # directory torn down under us: batch is over
            if queue_empty and leases_empty:
                break  # every block has a result; we are done
            time.sleep(poll)
            continue

        lease_path, block = claimed
        claimed_at = time.time()
        block_id = int(block["block"])
        generation = int(block.get("gen", 1))
        block_span = f"b{block_id}.g{generation}"
        log.emit("claim", span=block_span, block=block_id,
                 gen=generation, shard=int(block.get("shard", -1)),
                 tasks=len(block.get("tasks", ())))
        heartbeat = _Heartbeat(
            lease_path, max(0.05, lease_ttl / 4.0),
            on_beat=lambda: log.emit(
                "heartbeat", span=block_span, block=block_id,
                gen=generation,
            ),
        )
        heartbeat.start()
        completions: list[list[Any]] = []
        error: Optional[dict[str, str]] = None
        try:
            for raw_task in block["tasks"]:
                index, payload, elapsed = _execute(tuple(raw_task))
                completions.append([index, payload, elapsed])
                log.emit("point", span=new_span_id(), parent=block_span,
                         index=index, dur=elapsed)
        except BaseException as exc:  # the *driver* decides to re-raise
            error = {"type": type(exc).__name__, "message": str(exc)}
        finally:
            heartbeat.stop()
        result: dict[str, Any] = {
            "block": block_id,
            "gen": generation,
            "worker": worker_id,
            "enqueued": block.get("enqueued", claimed_at),
            "claimed": claimed_at,
            "finished": time.time(),
            "completions": completions,
        }
        if error is not None:
            result["error"] = error
        _atomic_write_json(
            results_dir / f"block-{block_id:05d}.json", result
        )
        log.emit("result_write", span=block_span, block=block_id,
                 gen=generation, points=len(completions),
                 **({"error": error["type"]} if error else {}))
        try:
            os.unlink(lease_path)
        except OSError:
            pass

    log.emit("worker_exit", reason=exit_reason)
    log.close()


class ShardedBackend(ExecutionBackend):
    """Filesystem-coordinated multi-process sweeps with work-stealing.

    The driver (this object) partitions tasks into blocks by point
    hash, enqueues them, spawns N shard workers, then harvests result
    files as they land — streaming aggregation, so partial results
    render immediately.  Workers that die are detected two ways: the
    driver respawns dead *processes* while work remains, and any
    surviving worker steals their expired *leases*, so either failure
    mode alone cannot stall the sweep.
    """

    name = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        *,
        root: Optional[os.PathLike] = None,
        lease_ttl: float = 30.0,
        poll: float = 0.02,
        block_size: Optional[int] = None,
        max_respawns: Optional[int] = None,
        keep_events: bool = False,
        **_ignored: Any,
    ) -> None:
        shards = shards if shards is not None else os.cpu_count() or 1
        if shards < 1:
            raise ValueError(f"shards={shards} is invalid; need >= 1")
        self._shards = shards
        self._root = Path(root) if root is not None else None
        self.lease_ttl = float(lease_ttl)
        self.poll = float(poll)
        self.block_size = block_size
        self.max_respawns = (
            max_respawns if max_respawns is not None else 2 * shards
        )
        #: keep the batch directory (event logs included) after a clean
        #: completion instead of reclaiming it — ``repro fleet trace``
        #: and the CLI's ``--keep-events`` read the preserved logs.
        self.keep_events = keep_events
        self.last_trace = ""
        self._stop = threading.Event()
        self._batches = 0
        self._tasks = 0
        self._blocks = 0
        self._execute_s = 0.0
        self._queue_wait_s = 0.0
        self._steals = 0
        self._respawns = 0
        self._resumed_blocks = 0

    @property
    def workers(self) -> int:
        return self._shards

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else default_shard_root()

    def start(self) -> None:
        self._stop.clear()
        self.root.mkdir(parents=True, exist_ok=True)

    def shutdown(self) -> None:
        self._stop.set()

    # -- batch layout --------------------------------------------------
    def _batch_dir(self, tasks: Sequence[Task], batch_id: str) -> Path:
        if not batch_id:
            digest = hashlib.sha256(
                json.dumps(tasks, sort_keys=True).encode()
            ).hexdigest()
            batch_id = digest
        return self.root / batch_id[:24]

    def _auto_block_size(self, n_tasks: int) -> int:
        if self.block_size is not None:
            return max(1, self.block_size)
        # ~8 blocks per shard: enough granularity for stealing to help,
        # few enough files that the filesystem is not the bottleneck.
        return max(1, min(256, n_tasks // (self._shards * 8) or 1))

    def _enqueue(
        self,
        batch: Path,
        tasks: Sequence[Task],
        keys: Optional[Sequence[str]],
        first_block: int = 0,
    ) -> int:
        """Chunk tasks into per-shard blocks and enqueue them.

        ``first_block`` keeps resumed batches from reusing block ids
        whose result files already exist (an id collision would make
        the fresh result invisible to the driver's seen-file dedup).
        """
        by_shard: dict[int, list[Task]] = {}
        for position, task in enumerate(tasks):
            if keys is not None and position < len(keys):
                key = keys[position]
            else:
                key = hashlib.sha256(
                    f"{task[1]}:{task[2]}".encode()
                ).hexdigest()
            by_shard.setdefault(_shard_of(key, self._shards), []).append(task)
        block_size = self._auto_block_size(len(tasks))
        block_id = first_block
        now = time.time()
        for shard in sorted(by_shard):
            shard_tasks = by_shard[shard]
            for offset in range(0, len(shard_tasks), block_size):
                chunk = shard_tasks[offset:offset + block_size]
                _atomic_write_json(
                    batch / "queue" / f"block-{block_id:05d}.s{shard:02d}.g1.json",
                    {
                        "block": block_id,
                        "shard": shard,
                        "gen": 1,
                        "enqueued": now,
                        "tasks": [list(task) for task in chunk],
                    },
                )
                block_id += 1
        return block_id

    def _harvest_file(
        self,
        path: Path,
        expected: dict[int, Task],
        done: set[int],
    ) -> tuple[list[Completion], Optional[dict]]:
        """Completions (and any recorded error) from one result file."""
        result = _read_json(path)
        if result is None:
            return [], None
        fresh: list[Completion] = []
        for index, payload, elapsed in result.get("completions", ()):
            index = int(index)
            if index in expected and index not in done:
                done.add(index)
                fresh.append((index, payload, float(elapsed)))
                self._tasks += 1
                self._execute_s += float(elapsed)
        if fresh:
            self._blocks += 1
            claimed = result.get("claimed")
            enqueued = result.get("enqueued")
            if claimed is not None and enqueued is not None:
                self._queue_wait_s += max(0.0, claimed - enqueued)
        return fresh, result.get("error")

    def _dump_once(
        self,
        batch: Path,
        reason: str,
        dumped: set[str],
        log: EventLog,
        trace: str,
    ) -> None:
        """Write one flight dump per (batch, reason); never fatal.

        The dump merges every per-process log in the batch directory —
        so a dead worker's final heartbeats are in it even though the
        driver never saw them — and its existence flips the batch dir
        to *preserved* (see :meth:`_finish`).
        """
        if reason in dumped or not log.enabled:
            return
        dumped.add(reason)
        try:
            # Unfiltered: a resume dump's whole point is the *previous*
            # fleet's final moments, which carry that fleet's trace id.
            path = flight_dump(
                batch / "dumps", reason,
                iter_batch_events(batch),
                trace=trace, extra={"batch": batch.name},
            )
        except OSError:
            return
        log.emit("dump", reason=reason, path=str(path))

    def run_tasks(
        self,
        tasks: Sequence[Task],
        *,
        batch_id: str = "",
        keys: Optional[Sequence[str]] = None,
        trace_id: str = "",
    ) -> Iterator[Completion]:
        if not tasks:
            return
        self.start()
        self._batches += 1
        trace = trace_id or new_trace_id()
        self.last_trace = trace
        expected: dict[int, Task] = {task[0]: task for task in tasks}
        done: set[int] = set()

        batch = self._batch_dir(tasks, batch_id)
        queue_dir = batch / "queue"
        lease_dir = batch / "leases"
        results_dir = batch / "results"
        events_dir = batch / "events"
        for directory in (queue_dir, lease_dir, results_dir, events_dir):
            directory.mkdir(parents=True, exist_ok=True)
        done_file = batch / "done"
        try:
            os.unlink(done_file)
        except OSError:
            pass

        log = EventLog(trace, "driver", path=events_dir / "driver.jsonl")
        dumped: set[str] = set()
        prior_state = (batch / "manifest.json").exists()
        log.emit("batch_start", batch=batch.name, tasks=len(tasks),
                 shards=self._shards)

        # Resume: adopt results a previous (killed) driver's workers
        # already finished, then clear stale queue/lease state.
        seen_results: set[str] = set()
        error: Optional[dict] = None
        resumed_here = 0
        for path in sorted(results_dir.glob("block-*.json")):
            seen_results.add(path.name)
            fresh, err = self._harvest_file(path, expected, done)
            if fresh:
                self._resumed_blocks += 1
                resumed_here += 1
            error = error or err
            yield from fresh
        if prior_state or seen_results:
            # A previous driver left state behind: record the adoption
            # and snapshot its final moments before we clear anything.
            log.emit("resume", batch=batch.name,
                     adopted_blocks=resumed_here,
                     adopted_points=len(done))
            self._dump_once(batch, "resume", dumped, log, trace)
        for directory in (queue_dir, lease_dir):
            for stale in directory.iterdir():
                try:
                    os.unlink(stale)
                except OSError:
                    pass
        if error is not None:
            raise ShardedSweepError(
                f"sweep point failed in a previous run: "
                f"{error.get('type')}: {error.get('message')}"
            )

        missing = [expected[i] for i in sorted(set(expected) - done)]
        if not missing:
            log.emit("batch_done", batch=batch.name, complete=True,
                     points=len(done))
            log.close()
            self._finish(batch, done_file, [], complete=True,
                         keep=self.keep_events or bool(dumped))
            return
        missing_keys = None
        if keys is not None:
            position = {task[0]: i for i, task in enumerate(tasks)}
            missing_keys = [keys[position[task[0]]] for task in missing]
        # Number fresh blocks above anything this batch has ever used:
        # past any existing result file, and past the previous driver's
        # high-water mark (its manifest's ``next_block``) — an orphaned
        # worker may still be executing one of those blocks and would
        # otherwise race a fresh block for the same result filename.
        first_block = 0
        for name in seen_results:
            match = re.match(r"^block-(\d+)\.json$", name)
            if match:
                first_block = max(first_block, int(match.group(1)) + 1)
        old_manifest = _read_json(batch / "manifest.json")
        if isinstance(old_manifest, dict):
            first_block = max(
                first_block, int(old_manifest.get("next_block", 0))
            )
        next_block = self._enqueue(batch, missing, missing_keys, first_block)
        _atomic_write_json(
            batch / "manifest.json",
            {
                "batch": batch.name,
                "shards": self._shards,
                "tasks": len(missing),
                "blocks": next_block - first_block,
                "next_block": next_block,
                "lease_ttl": self.lease_ttl,
                "trace": trace,
            },
        )
        log.emit("enqueue", blocks=next_block - first_block,
                 tasks=len(missing), first_block=first_block)

        ctx = _pool_context()
        procs: list[multiprocessing.process.BaseProcess] = []

        def spawn(worker_id: int) -> None:
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(str(batch), worker_id, self._shards,
                      self.lease_ttl, self.poll),
                daemon=True,
                name=f"shard-worker-{worker_id}",
            )
            proc.start()
            procs.append(proc)
            log.emit("spawn", worker=worker_id, pid=proc.pid)

        for worker_id in range(self._shards):
            spawn(worker_id)

        respawns = 0
        next_worker_id = self._shards
        idle_scans_with_no_workers = 0
        try:
            while len(done) < len(expected) and not self._stop.is_set():
                progressed = False
                for path in sorted(results_dir.glob("block-*.json")):
                    if path.name in seen_results:
                        continue
                    seen_results.add(path.name)
                    fresh, err = self._harvest_file(path, expected, done)
                    if err is not None:
                        raise ShardedSweepError(
                            f"sweep point failed: {err.get('type')}: "
                            f"{err.get('message')}"
                        )
                    log.emit("harvest", file=path.name,
                             points=len(fresh))
                    if self._result_was_stolen(path):
                        # First driver-side evidence of a lease steal:
                        # snapshot the fleet for the postmortem trail.
                        self._dump_once(batch, "steal", dumped, log, trace)
                    progressed = progressed or bool(fresh)
                    yield from fresh
                if len(done) >= len(expected):
                    break
                if progressed:
                    idle_scans_with_no_workers = 0
                else:
                    dead = [p for p in procs if not p.is_alive()
                            and p.exitcode not in (0, None)]
                    if dead:
                        self._dump_once(
                            batch, "worker-crash", dumped, log, trace)
                    for proc in dead:
                        procs.remove(proc)
                        if respawns >= self.max_respawns:
                            raise ShardedSweepError(
                                f"shard workers crashed {respawns + 1} "
                                f"times (exit {proc.exitcode}); giving up"
                            )
                        respawns += 1
                        self._respawns += 1
                        log.emit("respawn", exitcode=proc.exitcode,
                                 worker=next_worker_id)
                        spawn(next_worker_id)
                        next_worker_id += 1
                    if not any(p.is_alive() for p in procs) and not dead:
                        # Every worker exited cleanly yet points look
                        # missing.  Results may have landed between our
                        # scan and the liveness check, so rescan a few
                        # times before declaring a protocol bug.
                        idle_scans_with_no_workers += 1
                        if idle_scans_with_no_workers > 3:
                            raise ShardedSweepError(
                                f"all shard workers exited with "
                                f"{len(expected) - len(done)} points missing"
                            )
                    time.sleep(self.poll)
        finally:
            complete = len(done) >= len(expected)
            if not complete:
                self._dump_once(batch, "incomplete", dumped, log, trace)
            self._steals += sum(
                1 for event in iter_batch_events(batch, trace=trace)
                if event.kind == "steal"
            )
            log.emit("batch_done", batch=batch.name, complete=complete,
                     points=len(done), respawns=respawns)
            log.close()
            self._finish(batch, done_file, procs, complete=complete,
                         keep=self.keep_events or bool(dumped))

    @staticmethod
    def _result_was_stolen(path: Path) -> bool:
        result = _read_json(path)
        return isinstance(result, dict) and int(result.get("gen", 1)) > 1

    def _finish(
        self,
        batch: Path,
        done_file: Path,
        procs: Sequence[multiprocessing.process.BaseProcess],
        *,
        complete: bool,
        keep: bool = False,
    ) -> None:
        try:
            done_file.touch()
        except OSError:
            pass
        for proc in procs:
            proc.join(timeout=2.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        if complete and not keep:
            # Nothing left to resume, nothing flight-recorded worth
            # keeping; reclaim the coordination dir.
            shutil.rmtree(batch, ignore_errors=True)

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "workers": self._shards,
            "batches": self._batches,
            "tasks": self._tasks,
            "blocks": self._blocks,
            "resumed_blocks": self._resumed_blocks,
            "execute_s": self._execute_s,
            "queue_wait_s": self._queue_wait_s,
            "steals": self._steals,
            "respawns": self._respawns,
            "rebuilds": 0,
        }


register_backend("serial", SerialBackend)
register_backend("pool", PoolBackend)
register_backend("sharded", ShardedBackend)
