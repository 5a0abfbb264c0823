"""Kill-and-resume: SIGKILL a sweep mid-flight, restart, bit parity.

The engine's resume story has two layers and both are exercised here:

* the **cache** layer — every completed point is written to the
  content-addressed cache before it is yielded, so a killed driver's
  finished points are served from disk on restart (and a pool
  driver's workers exit with it instead of living on as orphans);
* the **shard directory** layer — a sharded sweep's workers coordinate
  through files, so a SIGKILLed driver leaves a harvestable batch
  directory (and possibly orphan workers still draining the queue)
  that the restarted driver re-adopts before enqueueing the remainder.

In both cases the resumed sweep's rendered JSON must be bit-identical
to an uninterrupted run with a fresh cache.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exp import ExperimentSpec, ResultCache, SweepAxis, SweepRunner

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Enough slow points that the driver is reliably mid-sweep when the
#: first cache entry appears (each point sleeps; 2 workers drain them
#: two at a time).
N_POINTS = 10
SLEEP_S = 0.3

DRIVER_SCRIPT = """\
import sys
from repro.exp import ExperimentSpec, ResultCache, SweepAxis, SweepRunner

cache_dir, backend = sys.argv[1], sys.argv[2]
spec = ExperimentSpec(
    experiment="debug.sleep",
    base={"seconds": %(sleep)r},
    axes=(SweepAxis("value", tuple(range(%(points)d))),),
    seed=11,
)
runner = SweepRunner(
    workers=2, cache=ResultCache(cache_dir), backend=backend, shards=2
)
runner.run(spec)
""" % {"sleep": SLEEP_S, "points": N_POINTS}


def sweep_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="debug.sleep",
        base={"seconds": SLEEP_S},
        axes=(SweepAxis("value", tuple(range(N_POINTS))),),
        seed=11,
    )


def canonical(result) -> str:
    return json.dumps(result.to_dict()["results"], sort_keys=True)


def _spawn_driver(cache_dir: Path, backend: str, shard_root: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_EXP_SHARDS"] = str(shard_root)
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER_SCRIPT, str(cache_dir), backend],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _stat(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state
    first, then the parent pid); empty once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return text.rsplit(")", 1)[1].split()


def _children(pid: int) -> list[int]:
    return [int(entry.name) for entry in Path("/proc").iterdir()
            if entry.name.isdigit() and _stat(int(entry.name))[1:2] == [str(pid)]]


def _running(pid: int) -> bool:
    return _stat(pid)[:1] not in ([], ["Z"])


def _wait_for_cache_entry(cache_dir: Path, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        entries = list(cache_dir.glob("??/*.json"))
        if entries:
            return len(entries)
        time.sleep(0.01)
    raise AssertionError("driver produced no cache entry before timeout")


@pytest.mark.parametrize("backend", ["pool", "sharded"])
def test_sigkill_mid_sweep_resumes_from_cache(tmp_path, backend):
    cache_dir = tmp_path / "cache"
    shard_root = tmp_path / "shards"

    driver = _spawn_driver(cache_dir, backend, shard_root)
    try:
        _wait_for_cache_entry(cache_dir)
        workers = _children(driver.pid) if backend == "pool" else []
        os.kill(driver.pid, signal.SIGKILL)
        driver.wait(timeout=30)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait(timeout=30)
    assert driver.returncode == -signal.SIGKILL
    if backend == "pool":
        # The pool's workers notice their driver is gone and exit.
        assert len(workers) == 2, workers
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers)), "orphaned pool workers"

    # Restart over the same cache (and, for sharded, the same shard
    # root — the batch directory left behind must be re-adopted, not
    # trip up the new driver).
    resumed_runner = SweepRunner(
        workers=2,
        cache=ResultCache(cache_dir),
        backend=backend,
        shards=2,
    )
    if backend == "sharded":
        resumed_runner.backend._root = shard_root
    resumed = resumed_runner.run(sweep_spec())

    # The killed driver cached at least one completed point, and the
    # resumed sweep served those from disk instead of recomputing.
    assert resumed.cached_points >= 1
    assert resumed.cached_points + resumed.computed_points == N_POINTS
    assert [o.index for o in resumed.outcomes] == list(range(N_POINTS))

    # Bit parity with an uninterrupted run on a fresh cache.
    uninterrupted = SweepRunner(
        workers=1, cache=ResultCache(tmp_path / "fresh")
    ).run(sweep_spec())
    assert canonical(resumed) == canonical(uninterrupted)


def test_sharded_orphan_results_are_adopted(tmp_path):
    """Kill the driver but let its orphaned shard workers keep going:
    result blocks they finish after the driver's death must be adopted
    by the restarted driver (resumed_blocks > 0) rather than recomputed
    or — worse — collide with the new driver's block numbering."""
    cache_dir = tmp_path / "cache"
    shard_root = tmp_path / "shards"

    driver = _spawn_driver(cache_dir, "sharded", shard_root)
    try:
        _wait_for_cache_entry(cache_dir)
        os.kill(driver.pid, signal.SIGKILL)
        driver.wait(timeout=30)
        # The orphaned shard workers outlive the driver and keep
        # draining the queue (that is the designed behavior); wait for
        # them to finish so every point has a result file on disk but
        # only the pre-kill harvest made it into the cache.
        batch = shard_root / sweep_spec().spec_hash()[:24]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            queued = list((batch / "queue").glob("block-*.json"))
            leased = list((batch / "leases").glob("block-*.json"))
            if not queued and not leased and (
                    list((batch / "results").glob("block-*.json"))):
                break
            time.sleep(0.05)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait(timeout=30)

    had_orphan_results = bool(
        list(shard_root.glob("*/results/block-*.json")))

    runner = SweepRunner(
        workers=2, cache=ResultCache(cache_dir), backend="sharded", shards=2
    )
    runner.backend._root = shard_root
    resumed = runner.run(sweep_spec())
    assert len(resumed.outcomes) == N_POINTS
    if had_orphan_results:
        assert runner.backend.stats()["resumed_blocks"] >= 1

    uninterrupted = SweepRunner(
        workers=1, cache=ResultCache(tmp_path / "fresh")
    ).run(sweep_spec())
    assert canonical(resumed) == canonical(uninterrupted)
