"""Regenerate ``perfbench/oracle.json`` from direct runs.

Usage (from the root of a checkout)::

    python3 perfbench/record_oracle.py [--seeds 0-9]

Records, per seed, the exact simulated statistics and ``RunResult``
digest of both machine workloads (batch kernel) and the payload digest
of the ``sweep-xtopo`` grid (serial backend, no cache), plus the results
digest of every ``serve-zipf`` catalogue spec from a direct
``SweepRunner`` run.  Rerun it only when a change is meant to alter
simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import machine_wl  # noqa: E402
import serve_wl  # noqa: E402
import sweep_wl  # noqa: E402
from common import ORACLE_PATH  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9",
                        help="inclusive seed range, e.g. 0-9")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    oracle = machine_wl.record(seeds)
    oracle["sweep-xtopo"] = sweep_wl.record(seeds)
    oracle["serve-zipf"] = serve_wl.record()
    ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
