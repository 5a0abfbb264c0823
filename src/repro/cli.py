"""Command-line interface: regenerate the paper's results from a shell.

::

    python -m repro demo [--json]       # the quickstart story
    python -m repro fig7 [--json]       # Figure 7 transit-time curves
    python -m repro table1 [--json]     # Table 1 traffic study
    python -m repro table2 [--quick]    # Tables 2 and 3 (fit + project)
    python -m repro packaging           # section 3.6 chip/board budget
    python -m repro hotspot [--pes N]   # combining ablation
    python -m repro stats [--json]      # instrumented run + full metrics
    python -m repro trace [--json]      # cycle-level event trace
    python -m repro trace --chrome f.json  # ... plus a Perfetto trace file
    python -m repro timeline [--json]   # windowed queue/MM time series
    python -m repro drift [--strict]    # sim vs analytic-model drift
    python -m repro queue               # parallel queue vs spin lock
    python -m repro serve [--port N]    # simulation-as-a-service server

Each subcommand prints the same table the corresponding benchmark
asserts on; the CLI exists so a reader can poke at the reproduction
without learning pytest.

The sweep-shaped subcommands (``fig7``, ``table1``, ``table2``,
``hotspot``) are thin :class:`~repro.exp.ExperimentSpec` definitions
executed through the shared :class:`~repro.exp.SweepRunner`, so they
all understand the same execution flags: ``--workers N`` fans the sweep
over a process pool, results land in the content-addressed cache (a
rerun is a near-instant cache hit), ``--refresh`` recomputes and
overwrites, ``--no-cache`` bypasses the cache entirely, and
``--cache-dir`` relocates it.  The machine-run subcommands accept
``--seed`` (0, the default, is the paper's lockstep start; any other
value staggers PE start times reproducibly).

``--json`` (where offered) emits one uniform envelope via
:func:`repro.reporting.json_envelope`: ``schema_version``, ``command``,
the spec echo, sweep bookkeeping, and the payload under ``results``.
"""

from __future__ import annotations

import argparse
from typing import Any, Optional, Sequence


# ----------------------------------------------------------------------
# shared flag groups and helpers
# ----------------------------------------------------------------------
def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    """Execution flags shared by every engine-backed subcommand."""
    group = sub.add_argument_group("sweep execution")
    group.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for the sweep "
                            "(default: 1; >1 uses a process pool)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache entirely")
    group.add_argument("--refresh", action="store_true",
                       help="recompute every point, overwriting cache entries")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: $REPRO_EXP_CACHE or "
                            "~/.cache/repro/exp)")
    group.add_argument("--backend", default=None, metavar="NAME",
                       help="execution backend: serial, pool, or sharded "
                            "(default: serial for --workers 1, pool above)")
    group.add_argument("--shards", type=int, default=None, metavar="N",
                       help="worker processes for --backend sharded "
                            "(default: --workers)")
    group.add_argument("--keep-events", action="store_true",
                       help="with --backend sharded: preserve the batch "
                            "directory (fleet event logs included) after "
                            "completion, for 'repro fleet status/trace'")


def _add_seed_flag(sub: argparse.ArgumentParser, default: int = 0) -> None:
    sub.add_argument("--seed", type=int, default=default,
                     help="experiment seed (0 = lockstep PE start; other "
                          "values stagger start times reproducibly) "
                          f"[default: {default}]")


def _add_kernel_flag(sub: argparse.ArgumentParser) -> None:
    from repro.core.scheduler import kernel_names

    sub.add_argument("--kernel", choices=kernel_names(), default="dense",
                     help="simulation kernel (all are bit-identical; "
                          "'batch' needs numpy and pays off at 1024+ PEs) "
                          "[default: dense]")


def _make_runner(args: argparse.Namespace):
    """Build the SweepRunner a subcommand's flags describe."""
    from repro.exp import NullCache, ResultCache, SweepRunner

    if args.no_cache:
        cache = NullCache()
    else:
        cache = ResultCache(args.cache_dir)
    # The CLI default is one in-process worker: identical to the
    # pre-engine serial code path, and no pool startup cost for the
    # small default sweeps.  --workers N opts into the pool, and
    # --backend NAME picks the execution plane explicitly.
    workers = args.workers if args.workers is not None else 1
    backend = getattr(args, "backend", None)
    shards = getattr(args, "shards", None)
    if backend is not None:
        from repro.exp import backend_names

        if backend not in backend_names():
            raise SystemExit(
                f"unknown backend {backend!r}; choose from "
                f"{', '.join(backend_names())}"
            )
    if backend == "sharded" and shards is not None and workers == 1 \
            and args.workers is None:
        # --shards N alone should mean N-way parallelism.
        workers = shards
    if getattr(args, "keep_events", False):
        if backend != "sharded":
            raise SystemExit("--keep-events requires --backend sharded")
        from repro.exp.backend import ShardedBackend

        return SweepRunner(
            workers=workers, cache=cache, refresh=args.refresh,
            backend=ShardedBackend(shards=shards or workers,
                                   keep_events=True),
            shards=shards,
        )
    return SweepRunner(workers=workers, cache=cache, refresh=args.refresh,
                       backend=backend, shards=shards)


def _emit_envelope(command: str, results: Any, *, spec: Any = None,
                   sweep: Any = None, extra: Optional[dict] = None) -> int:
    from repro.reporting import json_envelope, render_json

    print(render_json(json_envelope(
        command, results, spec=spec, sweep=sweep, extra=extra
    )))
    return 0


def _metric_by_stage(metrics: list[dict], name: str) -> dict[int, int]:
    """Per-stage counter table from a payload's metrics sample list."""
    out: dict[int, int] = {}
    for sample in metrics:
        if sample["name"] != name or sample["kind"] != "counter":
            continue
        stage = sample["labels"].get("stage")
        if stage is None:
            continue
        stage = int(stage)
        out[stage] = out.get(stage, 0) + sample["value"]
    return out


def _metric_histogram(metrics: list[dict], name: str) -> Optional[dict]:
    for sample in metrics:
        if sample["name"] == name and sample["kind"] == "histogram":
            return sample["value"]
    return None


def _histogram_quantile(hist: dict, q: float) -> float:
    """Interpolated quantile of a serialized histogram (the dict form
    of :meth:`repro.instrumentation.HistogramData.to_dict`) — same
    estimator as the live :meth:`Histogram.quantile`."""
    from repro.instrumentation import _interpolated_quantile

    bounds = tuple(b["le"] for b in hist["buckets"] if b["le"] is not None)
    counts = [b["count"] for b in hist["buckets"]]
    return _interpolated_quantile(q, bounds, counts, hist["count"], hist["max"])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.exp import execute

    payload = execute("machine.demo",
                      {"pes": args.pes, "tickets": 4, "seed": args.seed,
                       "kernel": args.kernel})
    if args.json:
        return _emit_envelope("demo", payload)
    print(f"{args.pes} PEs each claimed 4 tickets from one shared counter")
    print(f"  final counter:     {payload['final_counter']}")
    print(f"  requests issued:   {payload['requests_issued']}")
    print(f"  combined en route: {payload['combines']}")
    print(f"  memory accesses:   {payload['memory_accesses']}")
    print(f"  mean round trip:   {payload['mean_round_trip']:.1f} cycles")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.exp import figure7_simulated_spec, figure7_spec

    if args.topology:
        return _fig7_cross_topology(args)

    if args.simulate:
        rates = tuple(args.rate) if args.rate else (0.02, 0.05)
        pes = args.pes if args.pes is not None else 4096
        cycles = args.cycles if args.cycles is not None else 200
        spec = figure7_simulated_spec(
            pes=pes, rates=rates, cycles=cycles,
            kernel=args.kernel, seed=args.seed,
        )
        result = _make_runner(args).run(spec)
        points = result.payloads
        if args.json:
            return _emit_envelope("fig7", points, spec=spec, sweep=result)
        print(f"Figure 7 simulated points ({pes} PEs, "
              f"kernel={args.kernel}, {cycles} offered cycles):")
        print(f"  {'p':>6} {'issued':>8} {'mean rtt':>9} {'max':>5} "
              f"{'analytic transit':>16}")
        for point in points:
            print(f"  {point['rate']:>6.3f} {point['issued']:>8} "
                  f"{point['observed_mean_round_trip']:>9.1f} "
                  f"{point['observed_max_round_trip']:>5} "
                  f"{point['analytic_transit_time']:>16.2f}")
        print("(observed rtt is the full round trip; the analytic column "
              "is the figure's one-way transit)")
        return 0

    if args.plot:
        from repro.reporting import figure7_ascii

        print(figure7_ascii(n=args.n, runner=_make_runner(args)))
        return 0

    spec = figure7_spec(n=args.n)
    result = _make_runner(args).run(spec)
    designs = result.payloads
    if args.json:
        return _emit_envelope("fig7", designs, spec=spec, sweep=result)

    print(f"Figure 7: transit time vs traffic intensity (n={args.n})")
    header = f"{'p':>6} | " + " ".join(
        f"{d['label']:>14}" for d in designs
    )
    print(header)
    print("-" * len(header))
    curves = [{pt["p"]: pt["transit_time"] for pt in d["points"]}
              for d in designs]
    for i in range(0, 33, 4):
        p = i / 100
        cells = []
        for curve in curves:
            if p in curve:
                cells.append(f"{curve[p]:>14.2f}")
            else:
                cells.append(f"{'sat':>14}")
        print(f"{p:>6.2f} | " + " ".join(cells))
    return 0


def _fig7_cross_topology(args: argparse.Namespace) -> int:
    """``fig7 --topology ...``: the same figure with the fabric swapped."""
    from repro.exp import CROSS_TOPOLOGY_RATES, figure7_cross_topology_spec

    topologies = tuple(dict.fromkeys(args.topology))
    rates = tuple(args.rate) if args.rate else CROSS_TOPOLOGY_RATES
    pes = args.pes if args.pes is not None else 16
    cycles = args.cycles if args.cycles is not None else 600
    spec = figure7_cross_topology_spec(
        topologies=topologies, pes=pes, rates=rates,
        cycles=cycles, kernel=args.kernel, seed=args.seed,
    )
    result = _make_runner(args).run(spec)
    points = result.payloads
    if args.json:
        return _emit_envelope("fig7", points, spec=spec, sweep=result)

    from repro.reporting import Series, ascii_plot, format_table

    print(f"Figure 7 across fabrics ({pes} PEs, kernel={args.kernel}, "
          f"{cycles} offered cycles):")
    rows = []
    for point in points:
        predicted = point["predicted_round_trip"]
        rows.append((
            point["topology"], point["rate"], point["issued"],
            point["observed_mean_round_trip"],
            "sat" if predicted is None else f"{predicted:.2f}",
            point["combines"], point["n_switches"], point["n_links"],
        ))
    print(format_table(
        ("fabric", "p", "issued", "mean rtt", "predicted",
         "combines", "switches", "links"),
        rows,
    ))
    series = [
        Series(
            label=topology,
            points=[(pt["rate"], pt["observed_mean_round_trip"])
                    for pt in points if pt["topology"] == topology],
        )
        for topology in topologies
    ]
    print()
    print(ascii_plot(
        series,
        x_label="p (messages/PE/cycle)",
        y_label="mean round trip (cycles)",
    ))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.apps.traces import Table1Row
    from repro.exp import table1_spec
    from repro.network.stochastic import StochasticConfig, StochasticNetwork

    spec = table1_spec(seed=args.seed)
    result = _make_runner(args).run(spec)
    if args.json:
        return _emit_envelope("table1", result.payloads,
                              spec=spec, sweep=result)
    print("Table 1: network traffic and performance")
    print(Table1Row.header())
    for payload in result.payloads:
        print(Table1Row(**payload).formatted())
    minimum = StochasticNetwork(StochasticConfig()).minimum_round_trip() / 2
    print(f"(minimum CM access time = {minimum:.0f} instruction times)")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.efficiency import (
        efficiency_table,
        fit_cost_model,
        format_efficiency_table,
    )
    from repro.apps.tred2 import collect_samples

    if args.quick:
        pairs = [(1, 8), (1, 12), (2, 12), (4, 12), (4, 16), (8, 16), (16, 16)]
    else:
        pairs = [
            (1, 8), (1, 12), (1, 16), (1, 20),
            (2, 12), (2, 16), (4, 12), (4, 16), (4, 20),
            (8, 16), (8, 20), (8, 24), (16, 16), (16, 24),
        ]
    if not args.json:
        print(f"simulating {len(pairs)} (P, N) pairs on the paracomputer ...")
    samples = collect_samples(pairs, seed=args.seed, runner=_make_runner(args))
    model = fit_cost_model(samples)
    if args.json:
        from repro.exp import tred2_spec

        results = {
            "model": {
                "overhead": model.overhead,
                "work": model.work,
                "wait_n": model.wait_n,
                "wait_p": model.wait_p,
            },
            "samples": [
                {
                    "processors": s.processors,
                    "matrix_size": s.matrix_size,
                    "total_time": s.total_time,
                    "waiting_time": s.waiting_time,
                }
                for s in samples
            ],
        }
        return _emit_envelope("table2", results,
                              spec=tred2_spec(pairs, seed=args.seed))
    measured = {(n, p) for p, n in pairs}
    print(f"fitted: T = {model.overhead:.1f} N + {model.work:.2f} N^3/P + W")
    print("\nTable 2 (with waiting):")
    print(format_efficiency_table(
        efficiency_table(model, include_waiting=True), measured=measured
    ))
    print("\nTable 3 (waiting recovered):")
    print(format_efficiency_table(
        efficiency_table(model, include_waiting=False), measured=set()
    ))
    return 0


def _cmd_packaging(args: argparse.Namespace) -> int:
    from repro.analysis.packaging import package_machine

    report = package_machine(args.pes)
    rows = report.summary_rows()
    if args.json:
        return _emit_envelope(
            "packaging",
            [{"label": label, "value": value} for label, value in rows],
            extra={"pes": args.pes},
        )
    print(f"packaging the {args.pes}-PE machine (section 3.6):")
    for label, value in rows:
        print(f"  {label:<32} {value}")
    return 0


def _cmd_hotspot(args: argparse.Namespace) -> int:
    from repro.exp import hotspot_spec

    spec = hotspot_spec(pes=args.pes, seed=args.seed, kernel=args.kernel)
    result = _make_runner(args).run(spec)
    # Axis order in the spec is (combining=True, combining=False).
    on, off = result.payloads
    if args.json:
        return _emit_envelope(
            "hotspot", {"combining": on, "serialized": off},
            spec=spec, sweep=result,
        )
    print(f"hot-spot fetch-and-adds, {args.pes} PEs x 4 rounds:")
    print(f"  {'':>12} {'combining':>10} {'serialized':>11}")
    print(f"  {'mem access':>12} {on['memory_accesses']:>10} "
          f"{off['memory_accesses']:>11}")
    print(f"  {'mean rtt':>12} {on['mean_round_trip']:>10.1f} "
          f"{off['mean_round_trip']:>11.1f}")
    by_stage = _metric_by_stage(on["metrics"], "network.combines")
    if by_stage:
        stages = " ".join(
            f"stage{stage}={count}" for stage, count in sorted(by_stage.items())
        )
        print(f"  combines by switch stage (combining on): {stages}")
    rtt = _metric_histogram(on["metrics"], "machine.round_trip_cycles")
    if rtt is not None and rtt["count"]:
        print(f"  round-trip histogram (combining on): count={rtt['count']} "
              f"mean={rtt['mean']:.1f} p90~{_histogram_quantile(rtt, 0.9):.1f} "
              f"max={rtt['max']}")
    return 0


def _run_hot_spot(pes: int, *, rounds: int = 4, trace_capacity: int = 0,
                  seed: int = 0, kernel: str = "dense"):
    """One instrumented hot-spot run, returning the live RunResult.

    ``stats`` and ``trace`` want the real :class:`MetricsSnapshot` and
    trace-event objects (for table rendering), so they run the machine
    in-process; the machine itself is assembled by the same
    :func:`repro.exp.build_hotspot_machine` the cached ``hotspot``
    sweep uses, keeping the two paths identical.
    """
    from repro.core.machine import MachineConfig
    from repro.exp import build_hotspot_machine

    config = MachineConfig(
        n_pes=pes, instrument=True, trace_capacity=trace_capacity,
        kernel=kernel,
    )
    machine = build_hotspot_machine({
        "machine": config.to_dict(), "rounds": rounds, "seed": seed,
    })
    return machine.run()


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = _run_hot_spot(
        args.pes, rounds=args.rounds, seed=args.seed,
        trace_capacity=args.trace_capacity, kernel=args.kernel,
    )
    if args.json:
        return _emit_envelope("stats", stats.to_dict())
    from repro.reporting import format_metrics

    print(f"instrumented hot-spot run, {args.pes} PEs x {args.rounds} "
          "fetch-and-adds on one cell:")
    print(f"  cycles:          {stats.cycles}")
    print(f"  requests issued: {stats.requests_issued}")
    print(f"  combines:        {stats.combines}")
    print(f"  memory accesses: {stats.memory_accesses}")
    print(f"  mean round trip: {stats.mean_round_trip:.1f} cycles")
    if stats.trace is not None:
        if stats.trace_dropped:
            print(f"  WARNING: trace truncated — ring buffer dropped "
                  f"{stats.trace_dropped} event(s); transit-latency "
                  f"quantiles unavailable (raise --trace-capacity)")
        else:
            lat = stats.latency
            if lat is not None and lat.count:
                print(f"  transit latency: p50={lat.p50} p95={lat.p95} "
                      f"p99={lat.p99} max={lat.max} "
                      f"({lat.count} completed requests)")
    print()
    print(format_metrics(stats.metrics))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    stats = _run_hot_spot(
        args.pes, rounds=args.rounds, trace_capacity=args.capacity,
        seed=args.seed,
    )
    events = list(stats.trace or [])
    dropped = stats.trace_dropped
    if args.chrome:
        from repro.obs import chrome_trace, write_chrome_trace

        write_chrome_trace(args.chrome, chrome_trace(events, dropped=dropped))
    shown = events if args.limit is None else events[: args.limit]
    if args.json:
        extra: dict[str, Any] = {
            "dropped": dropped, "total_events": len(events),
        }
        if args.chrome:
            extra["chrome_trace"] = args.chrome
        return _emit_envelope(
            "trace", [e.to_dict() for e in shown], extra=extra
        )
    if dropped:
        print(f"WARNING: trace truncated — ring buffer dropped {dropped} "
              f"event(s); raise --capacity to keep them")
    print(f"cycle trace, {args.pes} PEs x {args.rounds} hot-spot "
          f"fetch-and-adds ({len(shown)} events shown):")
    for e in shown:
        fields = " ".join(
            f"{k}={v}" for k, v in (
                ("tag", e.tag), ("pe", e.pe), ("stage", e.stage),
                ("mm", e.mm), ("value", e.value), ("tag2", e.tag2),
            ) if v is not None
        )
        print(f"  [{e.cycle:>5}] {e.kind:<9} {fields}")
    if args.chrome:
        print(f"chrome trace written to {args.chrome} "
              f"(open in ui.perfetto.dev)")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.exp import timeline_spec

    spec = timeline_spec(
        pes=args.pes, rate=args.rate, pattern=args.pattern,
        cycles=args.cycles, window=args.window, k=args.k, seed=args.seed,
    )
    result = _make_runner(args).run(spec)
    payload = result.payloads[0]
    if args.json:
        return _emit_envelope("timeline", payload, spec=spec, sweep=result)
    from repro.reporting import format_table, timeline_ascii

    print(f"timeline: {args.pattern} traffic at p={args.rate}, "
          f"{args.pes} PEs, {args.cycles} cycles sampled every "
          f"{payload['window']}")
    headers = ("cycle", "fwd pkts", "ret pkts", "wait", "combines",
               "issued", "replies", "mm util")
    rows = [
        (s["cycle"], s["forward_packets"], s["return_packets"],
         s["wait_records"], s["combines"], s["requests_issued"],
         s["replies"], s["mm_utilization"])
        for s in payload["samples"]
    ]
    print(format_table(headers, rows))
    print()
    print(timeline_ascii(payload))
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.exp import drift_spec

    spec = drift_spec(
        pes=args.pes, rates=(args.rate,), cycles=args.cycles, k=args.k,
        threshold=args.threshold, seed=args.seed, topology=args.topology,
    )
    result = _make_runner(args).run(spec)
    report = result.payloads[0]
    exit_code = 0 if report["ok"] or not args.strict else 1
    if args.json:
        _emit_envelope("drift", report, spec=spec, sweep=result)
        return exit_code
    from repro.reporting import format_table

    print(f"analytic drift monitor: {report['n_pes']} PEs, "
          f"k={report['k']}, {report['topology']} fabric, "
          f"{report['cycles']} cycles")
    print(f"  offered rate:  {report['offered_rate']:.3f}   "
          f"observed rate: {report['observed_rate']:.3f}   "
          f"requests: {report['requests']}")
    print(format_table(
        ("stage", "observed", "predicted", "rel error", "samples"),
        [(s["stage"], s["observed_delay"], s["predicted_delay"],
          f"{s['rel_error']:.1%}", s["samples"])
         for s in report["stages"]],
        float_format="{:.3f}",
    ))
    rt = report["round_trip"]
    print(f"  round trip: observed {rt['observed']:.2f} vs predicted "
          f"{rt['predicted']:.2f} ({rt['rel_error']:.1%} error)")
    for warning in report["warnings"]:
        print(f"  WARNING: {warning}")
    if report["ok"]:
        print(f"  ok — every error within the "
              f"{report['threshold']:.0%} threshold")
    return exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile the simulator's data plane on the hot-path workload.

    The workload matches ``benchmarks/bench_hot_path.py`` (moderate
    offered load with a hot-spot fetch-and-add mix) so the profile shows
    the same code paths the throughput gate measures.
    """
    import cProfile
    import pstats
    import random

    from repro.core.machine import MachineConfig, Ultracomputer
    from repro.core.memory_ops import FetchAdd, Load

    def program(pe_id, seed=args.seed):
        rng = random.Random((seed << 20) | pe_id)
        for _ in range(args.rounds):
            yield args.gap
            if rng.random() < 0.25:
                yield FetchAdd(0, 1)  # hot-spot: exercises combining
            else:
                yield Load(rng.randrange(0, 64 * args.pes))

    machine = Ultracomputer(MachineConfig(n_pes=args.pes, kernel=args.kernel))
    machine.spawn_many(args.pes, program)
    profiler = cProfile.Profile()
    profiler.enable()
    result = machine.run()
    profiler.disable()

    stats = pstats.Stats(profiler)
    rows = sorted(
        (
            {
                "function": f"{path}:{line}({name})",
                "ncalls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
            for (path, line, name), (_, ncalls, tottime, cumtime, _)
            in stats.stats.items()
        ),
        key=lambda row: row[args.sort],
        reverse=True,
    )[: args.top]
    total_time = stats.total_tt

    if args.json:
        return _emit_envelope(
            "profile",
            {"hotspots": rows},
            extra={
                "kernel": args.kernel,
                "pes": args.pes,
                "rounds": args.rounds,
                "gap": args.gap,
                "cycles": result.cycles,
                "total_seconds": round(total_time, 6),
                "cycles_per_sec": round(result.cycles / total_time)
                if total_time else None,
                "sort": args.sort,
            },
        )
    print(f"profiled {result.cycles} cycles ({args.kernel} kernel, "
          f"{args.pes} PEs x {args.rounds} refs, gap {args.gap}) in "
          f"{total_time:.3f}s")
    print(f"top {len(rows)} functions by {args.sort}:")
    print(f"  {'ncalls':>9} {'tottime':>9} {'cumtime':>9}  function")
    for row in rows:
        print(f"  {row['ncalls']:>9} {row['tottime']:>9.4f} "
              f"{row['cumtime']:>9.4f}  {row['function']}")
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from repro.workloads.queue_race import lock_free_run, locked_run

    rows = [(n, lock_free_run(n), locked_run(n)) for n in (2, 4, 8, 16)]
    if args.json:
        return _emit_envelope("queue", [
            {"pes": n, "lock_free": lf, "locked": lk} for n, lf, lk in rows
        ])
    print("parallel queue vs spin-locked queue (cycles, 8 ops/PE):")
    print(f"  {'PEs':>4} {'lock-free':>10} {'locked':>8}")
    for n, lock_free, locked in rows:
        print(f"  {n:>4} {lock_free:>10} {locked:>8}")
    return 0


_SWEEP_PRESETS = ("fig7", "cross-topology", "table1", "hotspot", "drift")


def _sweep_spec(args: argparse.Namespace):
    """Resolve the spec a ``repro sweep`` invocation describes."""
    import json as _json

    from repro.exp import (
        ExperimentSpec,
        drift_spec,
        figure7_cross_topology_spec,
        figure7_spec,
        hotspot_spec,
        table1_spec,
    )

    if args.spec_json:
        with open(args.spec_json, encoding="utf-8") as handle:
            return ExperimentSpec.from_dict(_json.load(handle))
    if args.preset == "fig7":
        return figure7_spec(n=args.pes or 4096)
    if args.preset == "cross-topology":
        from repro.exp import CROSS_TOPOLOGY_RATES

        rates = tuple(args.rate) if args.rate else CROSS_TOPOLOGY_RATES
        return figure7_cross_topology_spec(
            pes=args.pes or 16,
            rates=rates,
            cycles=args.cycles or 600,
            seed=args.seed,
        )
    if args.preset == "table1":
        return table1_spec(seed=args.seed)
    if args.preset == "hotspot":
        return hotspot_spec(pes=args.pes or 16, seed=args.seed)
    if args.preset == "drift":
        return drift_spec(pes=args.pes or 16, seed=args.seed)
    raise SystemExit(f"sweep needs a preset {_SWEEP_PRESETS} or --spec-json")


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run any spec through a chosen backend (optionally adaptively)."""
    spec = _sweep_spec(args)
    runner = _make_runner(args)

    if args.adaptive:
        from repro.exp import AdaptiveSampler

        report = AdaptiveSampler(
            runner, threshold=args.threshold, audit_fraction=args.audit
        ).run(spec)
        if args.json:
            return _emit_envelope("sweep", report.to_dict(), spec=spec)
        print(f"adaptive sweep of {spec.experiment!r} "
              f"({report.total_points} grid points, "
              f"quantity={report.quantity}):")
        by_source: dict[str, int] = {}
        for point in report.points:
            by_source[point.source] = by_source.get(point.source, 0) + 1
        for source in ("seed", "forced", "refined", "audit", "model"):
            if source in by_source:
                print(f"  {source:>8}: {by_source[source]}")
        print(f"  simulated {report.simulated_points}, skipped "
              f"{report.skipped_points} "
              f"({report.skipped_fraction:.0%} of the grid)")
        print(f"  audited estimate error: mean "
              f"{report.aggregate_rel_error:.2%}, max "
              f"{report.max_audit_rel_error:.2%} "
              f"(threshold {report.threshold:.0%})")
        print(f"  wall time: {report.wall_time:.2f}s")
        return 0

    result = runner.run(spec)
    backend_stats = runner.backend.stats() if runner.backend else None
    if args.json:
        return _emit_envelope(
            "sweep", result.payloads, spec=spec, sweep=result,
            extra={"backend_stats": backend_stats} if backend_stats else None,
        )
    print(f"sweep of {spec.experiment!r}: {len(result.outcomes)} points "
          f"via backend={result.backend} (workers={result.workers})")
    print(f"  cached {result.cached_points}, computed "
          f"{result.computed_points}, wall time {result.wall_time:.2f}s")
    if backend_stats:
        interesting = {k: v for k, v in backend_stats.items()
                       if k in ("steals", "respawns", "rebuilds",
                                "blocks", "resumed_blocks") and v}
        if interesting:
            print(f"  backend events: {interesting}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the content-addressed result cache."""
    from repro.exp import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        if args.json:
            return _emit_envelope("cache", {"cleared": removed,
                                            "root": str(cache.root)})
        print(f"removed {removed} entries from {cache.root}")
        return 0
    disk = cache.disk_stats()
    payload = {"root": str(cache.root), "disk": disk,
               "session": cache.stats()}
    if args.json:
        return _emit_envelope("cache", payload)
    print(f"result cache at {cache.root}:")
    print(f"  entries: {disk['entries']}")
    print(f"  bytes:   {disk['bytes']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exp import NullCache, ResultCache
    from repro.serve import run_server

    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)

    def ready(app) -> None:
        root = getattr(cache, "root", None)
        print(f"repro serve listening on http://{args.host}:{app.port}")
        print(f"  backend: {app.service.backend.name}   "
              f"workers: {app.service.workers}   cache: {root or 'off'}")
        print("  endpoints: GET /healthz /experiments /stats; POST /run "
              "[?stream=1]", flush=True)

    run_server(
        args.host,
        args.port,
        workers=args.workers,
        cache=cache,
        refresh=args.refresh,
        backend=args.backend,
        shards=args.shards,
        ready=ready,
    )
    return 0


def _fleet_status_payload(batch: Any, trace: Optional[str]) -> dict:
    """One snapshot of a batch directory's fleet state."""
    import json as _json
    from pathlib import Path

    from repro.obs.events import iter_batch_events

    batch = Path(batch)
    manifest: dict = {}
    try:
        with open(batch / "manifest.json", encoding="utf-8") as handle:
            loaded = _json.load(handle)
        if isinstance(loaded, dict):
            manifest = loaded
    except (OSError, ValueError):
        pass
    events = iter_batch_events(batch, trace=trace)
    workers: dict[str, dict] = {}
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        entry = workers.setdefault(
            event.worker, {"events": 0, "last_kind": "", "last_ts": 0.0}
        )
        entry["events"] += 1
        if event.ts >= entry["last_ts"]:
            entry["last_ts"] = event.ts
            entry["last_kind"] = event.kind
    return {
        "batch": batch.name,
        "trace": trace or manifest.get("trace", ""),
        "traces": sorted({e.trace for e in events if e.trace}),
        "tasks": manifest.get("tasks"),
        "done": (batch / "done").exists(),
        "queued_blocks": len(list(batch.glob("queue/*.json"))),
        "leased_blocks": len(list(batch.glob("leases/*"))),
        "result_blocks": len(list(batch.glob("results/block-*.json"))),
        "dumps": sorted(p.name for p in batch.glob("dumps/crash-*.json")),
        "events": len(events),
        "by_kind": dict(sorted(kinds.items())),
        "workers": {name: workers[name] for name in sorted(workers)},
    }


def _print_fleet_status(payload: dict) -> None:
    state = "done" if payload["done"] else "running"
    print(f"batch {payload['batch']} [{state}]  "
          f"trace={payload['trace'] or '-'}")
    print(f"  blocks: {payload['result_blocks']} done, "
          f"{payload['queued_blocks']} queued, "
          f"{payload['leased_blocks']} leased"
          + (f"  (tasks: {payload['tasks']})"
             if payload["tasks"] is not None else ""))
    if payload["by_kind"]:
        counts = ", ".join(f"{k}={v}" for k, v in payload["by_kind"].items())
        print(f"  events: {payload['events']}  ({counts})")
    for name, entry in payload["workers"].items():
        print(f"  {name:>12}: {entry['events']:>4} events, "
              f"last {entry['last_kind']}")
    for name in payload["dumps"]:
        print(f"  dump: {name}")


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """Tail a live (or preserved) sharded batch directory."""
    import time as _time
    from pathlib import Path

    batch = Path(args.batch_dir)
    if not batch.is_dir():
        raise SystemExit(f"{batch} is not a directory")
    while True:
        payload = _fleet_status_payload(batch, args.trace)
        if args.json:
            from repro.reporting import render_json

            print(render_json(payload), flush=True)
        else:
            _print_fleet_status(payload)
        if not args.watch or payload["done"]:
            return 0
        _time.sleep(args.interval)


def _cmd_fleet_dump(args: argparse.Namespace) -> int:
    """Pretty-print one flight-recorder crash dump."""
    from pathlib import Path

    from repro.obs.events import read_dump

    path = Path(args.path)
    if path.is_dir():
        candidates = sorted(
            list(path.glob("crash-*.json"))
            + list(path.glob("dumps/crash-*.json")),
            key=lambda p: p.stat().st_mtime,
        )
        if not candidates:
            raise SystemExit(f"no crash-*.json dumps under {path}")
        path = candidates[-1]
    payload = read_dump(path)
    if args.json:
        from repro.reporting import render_json

        print(render_json(payload))
        return 0
    print(f"flight dump {path.name}  ({payload['schema']})")
    print(f"  reason: {payload['reason']}   trace: "
          f"{payload['trace'] or '-'}")
    for key in sorted(payload):
        if key not in ("schema", "reason", "trace", "written_at", "events"):
            print(f"  {key}: {payload[key]}")
    events = payload.get("events", [])
    print(f"  last {len(events)} events:")
    t0 = events[0]["ts"] if events else 0.0
    for raw in events:
        extras = {k: v for k, v in raw.items()
                  if k not in ("ts", "kind", "trace", "worker", "span",
                               "parent")}
        span = f" span={raw['span']}" if raw.get("span") else ""
        tail = f"  {extras}" if extras else ""
        print(f"    +{raw['ts'] - t0:8.3f}s  {raw['worker']:>12}  "
              f"{raw['kind']}{span}{tail}")
    return 0


def _cmd_fleet_trace(args: argparse.Namespace) -> int:
    """Merge a batch dir's event logs into one Chrome/Perfetto trace."""
    from pathlib import Path

    from repro.obs.events import iter_batch_events
    from repro.obs.perfetto import fleet_chrome_trace, write_chrome_trace

    batch = Path(args.batch_dir)
    if not batch.is_dir():
        raise SystemExit(f"{batch} is not a directory")
    events = iter_batch_events(batch, trace=args.trace)
    if not events:
        raise SystemExit(f"no fleet events under {batch}/events")
    document = fleet_chrome_trace(events, trace=args.trace)
    write_chrome_trace(args.out, document)
    workers = document["otherData"]["workers"]
    print(f"wrote {args.out}: {len(document['traceEvents'])} trace events "
          f"from {len(events)} log events across {len(workers)} processes")
    print("  open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NYU Ultracomputer reproduction — regenerate the "
        "paper's tables and figures",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="combining quickstart")
    demo.add_argument("--pes", type=int, default=8)
    _add_kernel_flag(demo)
    _add_seed_flag(demo)
    demo.add_argument("--json", action="store_true",
                      help="emit the RunResult as JSON")
    demo.set_defaults(fn=_cmd_demo)

    fig7 = subparsers.add_parser("fig7", help="Figure 7 transit curves")
    fig7.add_argument("--n", type=int, default=4096)
    fig7.add_argument("--plot", action="store_true",
                      help="ASCII plot instead of a table")
    fig7.add_argument("--simulate", action="store_true",
                      help="run cycle-accurate points alongside the "
                           "analytic curves (see --pes/--rate/--kernel)")
    fig7.add_argument("--topology", action="append", metavar="NAME",
                      help="cycle-accurate latency-vs-load comparison on "
                           "the named fabric (omega, hypercube, mesh); "
                           "repeatable for one chart across fabrics")
    fig7.add_argument("--pes", type=int, default=None,
                      help="machine size for --simulate/--topology "
                           "[default: 4096 simulated, 16 cross-topology]")
    fig7.add_argument("--rate", type=float, action="append", metavar="P",
                      help="offered load for --simulate/--topology; "
                           "repeatable [default: 0.02 0.05]")
    fig7.add_argument("--cycles", type=int, default=None,
                      help="offered-traffic window for --simulate/"
                           "--topology [default: 200 simulated, "
                           "600 cross-topology]")
    _add_kernel_flag(fig7)
    _add_seed_flag(fig7, default=1)
    fig7.add_argument("--json", action="store_true",
                      help="emit the curves as JSON")
    _add_sweep_flags(fig7)
    fig7.set_defaults(fn=_cmd_fig7)

    table1 = subparsers.add_parser("table1", help="Table 1 traffic study")
    _add_seed_flag(table1, default=1)
    table1.add_argument("--json", action="store_true",
                        help="emit the rows as JSON")
    _add_sweep_flags(table1)
    table1.set_defaults(fn=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="Tables 2 and 3")
    table2.add_argument("--quick", action="store_true",
                        help="fewer simulated (P, N) pairs")
    _add_seed_flag(table2, default=11)
    table2.add_argument("--json", action="store_true",
                        help="emit the fitted model and samples as JSON")
    _add_sweep_flags(table2)
    table2.set_defaults(fn=_cmd_table2)

    packaging = subparsers.add_parser("packaging", help="section 3.6 budget")
    packaging.add_argument("--pes", type=int, default=4096)
    packaging.add_argument("--json", action="store_true",
                           help="emit the budget rows as JSON")
    packaging.set_defaults(fn=_cmd_packaging)

    hotspot = subparsers.add_parser("hotspot", help="combining ablation")
    hotspot.add_argument("--pes", type=int, default=16)
    _add_kernel_flag(hotspot)
    _add_seed_flag(hotspot)
    hotspot.add_argument("--json", action="store_true",
                         help="emit both runs' RunResults as JSON")
    _add_sweep_flags(hotspot)
    hotspot.set_defaults(fn=_cmd_hotspot)

    stats = subparsers.add_parser(
        "stats", help="instrumented hot-spot run with full metrics"
    )
    stats.add_argument("--pes", type=int, default=16)
    stats.add_argument("--rounds", type=int, default=4,
                       help="fetch-and-adds per PE")
    stats.add_argument("--trace-capacity", type=int, default=0, metavar="N",
                       help="also record an N-event cycle trace and report "
                            "transit-latency quantiles (0 = off)")
    _add_kernel_flag(stats)
    _add_seed_flag(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit the RunResult (metrics included) as JSON")
    stats.set_defaults(fn=_cmd_stats)

    trace = subparsers.add_parser(
        "trace", help="cycle-level event trace of a hot-spot run"
    )
    trace.add_argument("--pes", type=int, default=4)
    trace.add_argument("--rounds", type=int, default=2,
                       help="fetch-and-adds per PE")
    trace.add_argument("--capacity", type=int, default=4096,
                       help="trace ring-buffer capacity")
    trace.add_argument("--limit", type=int, default=None,
                       help="print at most N events")
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="also write a Chrome/Perfetto trace JSON to "
                            "PATH (open in ui.perfetto.dev)")
    _add_seed_flag(trace)
    trace.add_argument("--json", action="store_true",
                       help="emit the events as JSON")
    trace.set_defaults(fn=_cmd_trace)

    timeline = subparsers.add_parser(
        "timeline", help="windowed time-series probes over a traffic run"
    )
    timeline.add_argument("--pes", type=int, default=16)
    timeline.add_argument("--rate", type=float, default=0.2,
                          help="offered traffic (messages/PE/cycle)")
    timeline.add_argument("--pattern", default="uniform",
                          choices=["uniform", "hotspot", "stride",
                                   "permutation"])
    timeline.add_argument("--cycles", type=int, default=2000)
    timeline.add_argument("--window", type=int, default=100,
                          help="cycles per sample")
    timeline.add_argument("--k", type=int, default=2, help="switch arity")
    _add_seed_flag(timeline)
    timeline.add_argument("--json", action="store_true",
                          help="emit the sampled series as JSON")
    _add_sweep_flags(timeline)
    timeline.set_defaults(fn=_cmd_timeline)

    drift = subparsers.add_parser(
        "drift", help="simulation vs analytic-model drift monitor"
    )
    drift.add_argument("--pes", type=int, default=16)
    drift.add_argument("--rate", type=float, default=0.08,
                       help="offered traffic (messages/PE/cycle)")
    drift.add_argument("--cycles", type=int, default=2000)
    drift.add_argument("--k", type=int, default=2, help="switch arity")
    drift.add_argument("--topology", default="omega", metavar="NAME",
                       help="network fabric to compare against the "
                            "generalized model [default: omega]")
    drift.add_argument("--threshold", type=float, default=0.25,
                       help="max acceptable relative error")
    drift.add_argument("--strict", action="store_true",
                       help="exit nonzero when any error exceeds the "
                            "threshold (for CI)")
    _add_seed_flag(drift)
    drift.add_argument("--json", action="store_true",
                       help="emit the drift report as JSON")
    _add_sweep_flags(drift)
    drift.set_defaults(fn=_cmd_drift)

    profile = subparsers.add_parser(
        "profile", help="cProfile the simulator on the hot-path workload"
    )
    profile.add_argument("--pes", type=int, default=32)
    profile.add_argument("--rounds", type=int, default=40,
                         help="memory references per PE")
    profile.add_argument("--gap", type=int, default=4,
                         help="compute cycles between references")
    _add_kernel_flag(profile)
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="show the N hottest functions")
    profile.add_argument("--sort", choices=["tottime", "cumtime"],
                         default="tottime")
    _add_seed_flag(profile)
    profile.add_argument("--json", action="store_true",
                         help="emit the hotspot table as JSON")
    profile.set_defaults(fn=_cmd_profile)

    queue = subparsers.add_parser("queue", help="parallel queue race")
    queue.add_argument("--json", action="store_true",
                       help="emit the race table as JSON")
    queue.set_defaults(fn=_cmd_queue)

    sweep = subparsers.add_parser(
        "sweep",
        help="run any spec through a chosen execution backend",
        description="Generic sweep driver: pick a preset spec (or load "
        "one from JSON), choose the execution backend (--backend serial|"
        "pool|sharded, --shards N), and optionally sample adaptively — "
        "simulate only where the queueing model's calibrated prediction "
        "is uncertain, with an audited error bound (--adaptive).",
    )
    sweep.add_argument("preset", nargs="?", choices=_SWEEP_PRESETS,
                       help="which built-in spec to run")
    sweep.add_argument("--spec-json", metavar="FILE", default=None,
                       help="load an ExperimentSpec from a JSON file "
                            "instead of a preset")
    sweep.add_argument("--pes", type=int, default=None,
                       help="machine size where the preset takes one")
    sweep.add_argument("--rate", type=float, action="append", metavar="P",
                       help="offered-load grid for cross-topology; "
                            "repeatable")
    sweep.add_argument("--cycles", type=int, default=None,
                       help="offered-traffic window where the preset "
                            "takes one")
    sweep.add_argument("--adaptive", action="store_true",
                       help="adaptive sampling: simulate seeds + "
                            "uncertain points only, estimate the rest "
                            "from the calibrated analytic prior")
    sweep.add_argument("--threshold", type=float, default=0.05,
                       help="relative neighbor-disagreement above which "
                            "an adaptive point is simulated exactly "
                            "[default: 0.05]")
    sweep.add_argument("--audit", type=float, default=0.25,
                       help="fraction of skipped points simulated anyway "
                            "to measure the model error [default: 0.25]")
    _add_seed_flag(sweep, default=1)
    sweep.add_argument("--json", action="store_true",
                       help="emit results (or the adaptive coverage "
                            "report) as JSON")
    _add_sweep_flags(sweep)
    sweep.set_defaults(fn=_cmd_sweep)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument("--stats", action="store_true",
                       help="show entry/byte counts (the default action)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cache entry")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: $REPRO_EXP_CACHE or "
                            "~/.cache/repro/exp)")
    cache.add_argument("--json", action="store_true",
                       help="emit the stats as JSON")
    cache.set_defaults(fn=_cmd_cache)

    serve = subparsers.add_parser(
        "serve",
        help="long-lived HTTP/JSON server with request coalescing",
        description="Boot the simulation-as-a-service front end: accepts "
        "ExperimentSpec submissions on POST /run, coalesces identical "
        "concurrent requests into one computation (Pending-Interest "
        "Table keyed by spec hash), serves repeats from the result "
        "cache, and fans work over a persistent process pool.  See "
        "GET /healthz, /experiments, /stats, and POST /run?stream=1 "
        "for NDJSON progress.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address [default: 127.0.0.1]")
    serve.add_argument("--port", type=int, default=8600,
                       help="bind port (0 = ephemeral) [default: 8600]")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="persistent pool size [default: CPU count]")
    serve.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache entirely")
    serve.add_argument("--refresh", action="store_true",
                       help="recompute cached points (still writes fresh "
                            "entries)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: $REPRO_EXP_CACHE or "
                            "~/.cache/repro/exp)")
    serve.add_argument("--backend", default="pool", metavar="NAME",
                       help="execution backend: serial, pool, or sharded "
                            "[default: pool]")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="worker processes for --backend sharded "
                            "(default: --workers)")
    serve.set_defaults(fn=_cmd_serve)

    fleet = subparsers.add_parser(
        "fleet",
        help="inspect fleet event logs, crash dumps, and merged traces",
        description="Observability for the distributed execution plane: "
        "tail a sharded batch directory's structured event logs "
        "(status), pretty-print a flight-recorder crash dump (dump), or "
        "merge the per-process logs of one sweep into a single "
        "Chrome/Perfetto trace with steal flow arrows (trace).  Run "
        "sweeps with --backend sharded --keep-events to preserve logs "
        "past completion.",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fstatus = fleet_sub.add_parser(
        "status", help="summarize a batch directory's fleet state"
    )
    fstatus.add_argument("batch_dir",
                         help="a sharded batch directory (under "
                              "$REPRO_SHARD_ROOT or the default root)")
    fstatus.add_argument("--trace", default=None, metavar="ID",
                         help="filter to one sweep's trace id")
    fstatus.add_argument("--watch", action="store_true",
                         help="re-poll until the batch's done sentinel "
                              "appears")
    fstatus.add_argument("--interval", type=float, default=1.0, metavar="S",
                         help="poll interval for --watch [default: 1.0]")
    fstatus.add_argument("--json", action="store_true",
                         help="emit each snapshot as JSON")
    fstatus.set_defaults(fn=_cmd_fleet_status)

    fdump = fleet_sub.add_parser(
        "dump", help="pretty-print a flight-recorder crash dump"
    )
    fdump.add_argument("path",
                       help="a crash-*.json file, or a directory to "
                            "search (latest dump wins)")
    fdump.add_argument("--json", action="store_true",
                       help="emit the raw dump payload as JSON")
    fdump.set_defaults(fn=_cmd_fleet_dump)

    ftrace = fleet_sub.add_parser(
        "trace", help="merge per-process event logs into a Chrome trace"
    )
    ftrace.add_argument("batch_dir",
                        help="a batch directory with events/*.jsonl logs")
    ftrace.add_argument("--out", required=True, metavar="FILE",
                        help="output path for the Chrome trace JSON")
    ftrace.add_argument("--trace", default=None, metavar="ID",
                        help="filter to one sweep's trace id")
    ftrace.set_defaults(fn=_cmd_fleet_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
