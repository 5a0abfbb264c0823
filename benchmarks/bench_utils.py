"""Shared helpers for the benchmark modules (kept out of conftest.py so
the name never collides with the test suite's conftest when both run in
a single pytest session)."""

import time


def banner(title: str) -> str:
    rule = "=" * max(64, len(title) + 4)
    return f"\n{rule}\n{title}\n{rule}"


def calibrate(n: int = 2_000_000) -> float:
    """Host speed reference: integer-add loop throughput (ops/sec).

    Timed immediately before a measurement, it normalises that
    measurement (``seconds * calibrate()`` is a host-independent amount
    of work), so a swing in the host's speed between two measurements
    stays out of their ratio."""
    start = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    return n / (time.perf_counter() - start)
