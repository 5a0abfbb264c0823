"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7-sim-4096 --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer metric
instead.  Human-readable lines (checks, sample counts, the kernel table,
the host record) go to stdout first; the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Progress goes
to stderr.  Scratch files live under ``.perfbench_work/`` and are
removed on exit; traced runs leave their spans in ``.perfbench_out/``.

See ``perfbench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fig7-sim-4096", "barrier-4096", "sweep-xtopo", "serve-zipf")


def _module_for(workload: str):
    if workload in ("fig7-sim-4096", "barrier-4096"):
        import machine_wl

        return machine_wl
    if workload == "sweep-xtopo":
        import sweep_wl

        return sweep_wl
    import serve_wl

    return serve_wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # Every default location the package (and any process it starts)
    # might write to is pointed inside the checkout.
    os.environ.update({
        "REPRO_EXP_CACHE": str(work / "default-cache"),
        "REPRO_EXP_SHARDS": str(work / "shards"),
        "REPRO_FLEET_DUMPS": str(work / "dumps"),
        "XDG_CACHE_HOME": str(work / "xdg"),
        "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])),
    })
    sys.path[:0] = [str(SRC), str(HERE)]

    from common import Outcome, Tracer, host_record, load_metric_table, \
        load_oracle, log

    table = load_metric_table()
    oracle = load_oracle()
    module = _module_for(args.workload)
    outcome = Outcome()
    tracer = Tracer()
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            measured = module.trace(args.workload, args.seed, args.seconds,
                                    oracle, work, outcome, tracer)
        else:
            with outcome.speed.sampling():
                measured = module.measure(args.workload, args.seed,
                                          args.seconds, oracle, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    group = table["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        measured["error_rate"] = outcome.error_rate
    unknown = sorted(set(measured) - set(group))
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {unknown}")
    if not args.trace:
        outcome.report.append(outcome.speed.summary())
    # A layer the workload does not exercise reads 0 (see README.md).
    idle = sorted(set(group) - set(measured))
    host = host_record()

    for line in outcome.report:
        print(line)
    if idle:
        print(f"not exercised on {args.workload} (reported as 0): "
              + ", ".join(idle))
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"checks: {outcome.attempted} attempted, {outcome.failed} failed")
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps({"host": host, "metrics": measured,
                                    "spans": tracer.to_list()}))
        log(f"spans written to {path}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": measured.get(name, 0), "unit": spec["unit"]}
            for name, spec in group.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
