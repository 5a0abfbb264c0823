"""``serve-zipf``: ``repro serve`` in its own process under a Zipf load.

The server runs out of process (``pool`` backend, 2 workers, fresh
cache) so the load generator does not share its interpreter.  Two
closed-loop clients, each on one keep-alive connection, walk a seeded
Zipf(1.2) schedule of 2,000 requests over a fixed catalogue of 64 real
specs (``machine.hotspot`` and single-point ``fig7.cross_topology``)
in a fixed popularity order.  Every catalogue spec appears at least
once, so each run computes the whole catalogue and serves the rest from
the cache.  Every response's
``results`` are checked against the oracle's digest of a direct
:class:`SweepRunner` run of the same spec.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any

from common import Outcome, TimedCache, Tracer, digest, log, median, \
    p99

from repro.exp import NullCache, SweepRunner, figure7_cross_topology_spec, \
    hotspot_spec
from repro.exp.cache import ResultCache
from repro.exp.spec import point_hash
from repro.serve.service import SweepService

WORKERS = 2
CLIENTS = 2
REQUESTS = 2000
ZIPF_S = 1.2
#: server boots per run for the set-up median (the last one serves)
SETUP_BOOTS = 5
#: full warm replays after the loop: at least this many, then more
#: until ``--seconds`` have passed since the loop began
WARM_REPLAYS_MIN = 3
BOOT_TIMEOUT_S = 60.0
HOST = "127.0.0.1"


def catalogue() -> list:
    """The 64 distinct specs the clients draw from (seed-independent).

    Listed in popularity order: the small single-point
    ``fig7.cross_topology`` payloads are the popular ones, so the p50
    sits inside the cheap cache-hit path, and the larger
    ``machine.hotspot`` results fill the tail.
    """
    rates = [round(0.02 * i, 2) for i in range(1, 12)]
    specs = [
        figure7_cross_topology_spec(topologies=(topology,), rates=(rate,))
        for rate in rates
        for topology in ("omega", "hypercube", "mesh")
    ][:32]
    specs += [
        hotspot_spec(pes, rounds=rounds, combining_values=(combining,))
        for rounds in (1, 2, 3, 4)
        for pes in (16, 32, 64, 128)
        for combining in (True, False)
    ]
    return specs


def schedule(seed: int, n_specs: int) -> list[int]:
    """Seeded Zipf(1.2) draws over the catalogue's fixed popularity
    order, plus one request for every spec the draws missed, at a seeded
    position."""
    rng = random.Random(seed)
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, n_specs + 1)]
    draws = rng.choices(range(n_specs), weights=weights, k=REQUESTS)
    for index in sorted(set(range(n_specs)) - set(draws)):
        draws.insert(rng.randrange(len(draws) + 1), index)
    return draws


def _cycles(payload: dict) -> int:
    return payload.get("cycles_total", payload.get("cycles", 0))


class Server:
    """One ``repro serve`` process; ``boot_s`` runs until it answers."""

    def __init__(self, work, tag: str) -> None:
        self.cache_dir = work / f"serve-cache-{tag}"
        out_path = work / f"server-{tag}.out"
        start = time.perf_counter()
        with open(out_path, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", HOST,
                 "--port", "0", "--workers", str(WORKERS),
                 "--cache-dir", str(self.cache_dir)],
                stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            self.port = self._await_port(out_path, start + BOOT_TIMEOUT_S)
            status = Client(self.port).request("GET", "/healthz")[0]
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _await_port(self, out_path, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = re.search(r"listening on http://[\d.]+:(\d+)",
                              out_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited during boot:\n{out_path.read_text()}")
            time.sleep(0.005)
        raise TimeoutError("server did not report its port in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (graceful pool shutdown), then reap the whole session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()


class Client:
    """One keep-alive connection; times each request to the last byte."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection(HOST, port, timeout=120)

    def request(self, method: str, path: str, body: bytes = None):
        """``(status, body, start, end)``, the times from ``perf_counter``."""
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, start, time.perf_counter()

    def close(self) -> None:
        self.conn.close()


def _check_run(outcome: Outcome, spec_hash: str, status: int, data: bytes,
               expected: dict) -> dict:
    """Check one /run response; returns its parsed envelope (or {})."""
    if not outcome.check(status == 200, f"serve: /run answered {status}"):
        return {}
    body = json.loads(data)
    outcome.check(body.get("spec_hash") == spec_hash
                  and digest(body.get("results")) == expected.get(spec_hash),
                  f"serve: results for {spec_hash[:12]} differ from the "
                  "oracle")
    return body


def closed_loop(port: int, plan: list[int], bodies: list[bytes],
                hashes: list[str], expected: dict, outcome: Outcome):
    """CLIENTS threads, each sending its next request when the last
    returns; returns per-request (latency, served_by, cycles) and wall,
    scaled to the reference host speed (``HostSpeed``).

    Responses are parsed and checked after the loop, so one client's
    JSON work never holds the interpreter while the other's reply waits.
    """
    counter = itertools.count()
    lock = threading.Lock()
    raw: list = [None] * len(plan)

    def client_loop() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    position = next(counter)
                if position >= len(plan):
                    return
                raw[position] = client.request(
                    "POST", "/run", bodies[plan[position]])
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = outcome.speed.scaled(start, time.perf_counter())

    records = []
    for index, (status, data, sent, received) in zip(plan, raw):
        body = _check_run(outcome, hashes[index], status, data, expected)
        records.append((outcome.speed.scaled(sent, received),
                        body.get("served_by", "error"),
                        sum(_cycles(p) for p in body.get("results", ()))))
    return records, wall


def _replay(port: int, bodies, hashes, expected, outcome: Outcome) -> float:
    """One client requests every catalogue spec once; all cache hits.
    Returns the scaled wall time (``HostSpeed``)."""
    client = Client(port)
    try:
        start = time.perf_counter()
        for index, body in enumerate(bodies):
            status, data = client.request("POST", "/run", body)[:2]
            envelope = _check_run(outcome, hashes[index], status, data,
                                  expected)
            outcome.check(envelope.get("served_by") == "cache",
                          "serve: warm replay was not a cache hit")
        return outcome.speed.scaled(start, time.perf_counter())
    finally:
        client.close()


def _inputs(oracle: dict):
    specs = catalogue()
    bodies = [json.dumps(spec.to_dict(), sort_keys=True).encode()
              for spec in specs]
    hashes = [spec.spec_hash() for spec in specs]
    expected = oracle.get("serve-zipf", {}).get("catalogue", {})
    return specs, bodies, hashes, expected


def _run_loop(server, seed, oracle, outcome):
    specs, bodies, hashes, expected = _inputs(oracle)
    plan = schedule(seed, len(specs))
    records, wall = closed_loop(server.port, plan, bodies, hashes, expected,
                                outcome)
    return specs, bodies, hashes, expected, records, wall


def _by_class(records) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for latency, served_by, _ in records:
        out.setdefault(served_by, []).append(latency)
    return out


def measure(name: str, seed: int, seconds: float, oracle: dict,
            work, outcome: Outcome) -> dict[str, float]:
    boots = []
    server = None
    try:
        for boot in range(SETUP_BOOTS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(work, str(boot))
            boots.append(server.boot_s
                         * outcome.speed.factor(start, time.perf_counter()))
        log(f"{name}: boot samples {[round(b, 3) for b in boots]}")
        started = time.perf_counter()
        specs, bodies, hashes, expected, records, wall = _run_loop(
            server, seed, oracle, outcome)
        replays: list[float] = []
        while (len(replays) < WARM_REPLAYS_MIN
               or time.perf_counter() - started < seconds):
            replays.append(_replay(server.port, bodies, hashes, expected,
                                   outcome))
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    latencies = [latency for latency, _, _ in records]
    computed = [(latency, cycles) for latency, served_by, cycles in records
                if served_by == "computed"]
    cold = sum(latency for latency, _ in computed)
    classes = {k: len(v) for k, v in _by_class(records).items()}
    outcome.report.append(
        f"{name}: {len(records)} requests over {len(specs)} specs from "
        f"{CLIENTS} closed-loop clients in {wall:.3f} s; by class "
        f"{classes}; latency percentiles over {len(latencies)} samples; "
        f"{len(replays)} warm replays of {len(specs)} specs; "
        f"{len(boots)} boots")
    return {
        "setup_s": median(boots),
        "sim_cycles_per_s": sum(c for _, c in computed) / cold,
        "sweep_cold_s": cold,
        "sweep_warm_s": median(replays),
        "latency_p50_ms": median(latencies) * 1000.0,
        "latency_p99_ms": p99(latencies) * 1000.0,
        "throughput_rps": len(records) / wall,
        "peak_rss_mb": rss,
    }


async def _execute_pass(service: SweepService, specs, hashes, expected,
                        outcome: Outcome) -> list[float]:
    times = []
    for spec, spec_hash in zip(specs, hashes):
        start = time.perf_counter()
        payload = await service.execute(spec)
        times.append(time.perf_counter() - start)
        outcome.check(payload["computed_points"] == 0
                      and digest(payload["results"]) == expected.get(
                          spec_hash),
                      "serve: in-process execute differs from the oracle")
    return times


def trace(name: str, seed: int, seconds: float, oracle: dict, work,
          outcome: Outcome, tracer: Tracer) -> dict[str, float]:
    server = Server(work, "traced")
    try:
        specs, bodies, hashes, expected, records, wall = _run_loop(
            server, seed, oracle, outcome)
        client = Client(server.port)
        try:
            status, data = client.request("GET", "/stats")[:2]
            outcome.check(status == 200, f"serve: /stats answered {status}")
            stats = json.loads(data)
            status, data = client.request("GET", "/metrics")[:2]
            outcome.check(status == 200
                          and b"repro_serve_computations" in data,
                          "serve: /metrics lacks the serve counters")
        finally:
            client.close()

        # SweepService.execute on the filled cache, in this process:
        # plain, then with the cache behind a timing proxy.
        plain_service = SweepService(
            workers=1, cache=ResultCache(server.cache_dir), backend="serial")
        timed_cache = TimedCache(ResultCache(server.cache_dir), tracer)
        traced_service = SweepService(workers=1, cache=timed_cache,
                                      backend="serial")
        try:
            plain = asyncio.run(_execute_pass(plain_service, specs, hashes,
                                              expected, outcome))
            traced = asyncio.run(_execute_pass(traced_service, specs, hashes,
                                               expected, outcome))
        finally:
            plain_service.shutdown()
            traced_service.shutdown()
    finally:
        server.stop()

    by_class = _by_class(records)
    counts = stats["by_class"]
    outcome.check(all(counts.get(k, 0) == len(by_class.get(k, ()))
                      for k in ("computed", "coalesced", "cache")),
                  "serve: server-side class counts differ from the clients'")
    backend = stats["backend"]
    computed_wait = sum(by_class.get("computed", ()))
    execute_ms = median(plain) * 1000.0
    cache_p50 = median(by_class["cache"]) * 1000.0

    passes = []
    for _ in range(5):
        start = time.perf_counter()
        for spec in specs:
            spec.spec_hash()
            for point in spec.points():
                point_hash(spec.experiment, point)
        passes.append(time.perf_counter() - start)

    overhead = ((computed_wait - backend["execute_s"])
                / max(1, backend["tasks"]) * 1000.0)
    cache_stats = timed_cache.stats()
    metrics = {
        "serve.execute_cache_ms": execute_ms,
        "serve.http_ms": cache_p50 - execute_ms,
        "serve.computed": counts["computed"],
        "serve.cache": counts["cache"],
        "serve.coalesced": counts["coalesced"],
        "serve.coalescing_ratio": stats["coalescing_ratio"],
        "serve.cache_p50_ms": cache_p50,
        "trace_overhead": sum(traced) / sum(plain),
        "exp.hash_s": median(passes),
        "exp.cache_get_s": tracer.total("exp.cache_get_s"),
        "exp.cache_hits": cache_stats["hits"],
        "exp.cache_misses": cache_stats["misses"],
        "exp.cache_bytes_read": cache_stats["bytes_read"],
        "backend.execute_s": backend["execute_s"],
        "backend.queue_wait_s": backend["queue_wait_s"],
        "backend.overhead_ms_per_point": overhead,
        "backend.pool.overhead_ms_per_point": overhead,
        "exp.point_compute_s": backend["execute_s"],
    }
    for served_by in ("computed", "coalesced"):
        if by_class.get(served_by):
            metrics[f"serve.{served_by}_p50_ms"] = (
                median(by_class[served_by]) * 1000.0)
    outcome.report.append(
        f"{name}: server by_class {counts}, coalescing ratio "
        f"{stats['coalescing_ratio']:.3f}; pool stats {backend}; "
        f"execute on a hit {execute_ms:.3f} ms in process")
    return metrics


def record() -> dict[str, Any]:
    """Digest of a direct serial run's results for every catalogue spec."""
    runner = SweepRunner(workers=1, cache=NullCache(), backend="serial")
    out = {}
    for spec in catalogue():
        start = time.perf_counter()
        out[spec.spec_hash()] = digest(runner.run(spec).payloads)
        log(f"recorded {spec.experiment} {spec.spec_hash()[:12]} in "
            f"{time.perf_counter() - start:.3f} s")
    return {"catalogue": out}
