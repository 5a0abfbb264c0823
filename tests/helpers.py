"""Shared hypothesis strategies and helpers for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st

from repro.core.memory_ops import (
    FetchAdd,
    FetchPhi,
    Load,
    PHI_OPERATORS,
    Store,
    Swap,
    TestAndSet,
)

addresses = st.integers(min_value=0, max_value=3)
values = st.integers(min_value=-100, max_value=100)


@st.composite
def operations(draw, address_strategy=addresses):
    """A random memory operation on a small address range."""
    address = draw(address_strategy)
    kind = draw(
        st.sampled_from(["load", "store", "faa", "swap", "tas", "fmax", "for"])
    )
    if kind == "load":
        return Load(address)
    if kind == "store":
        return Store(address, draw(values))
    if kind == "faa":
        return FetchAdd(address, draw(values))
    if kind == "swap":
        return Swap(address, draw(values))
    if kind == "tas":
        return TestAndSet(address)
    if kind == "fmax":
        return FetchPhi(address, draw(values), PHI_OPERATORS["max"])
    return FetchPhi(address, draw(st.integers(0, 7)), PHI_OPERATORS["or"])


@st.composite
def operation_batches(draw, max_size=5):
    """A small batch of simultaneous operations (same cycle)."""
    return draw(st.lists(operations(), min_size=1, max_size=max_size))


# ----------------------------------------------------------------------
# Prometheus text-format parsing (for the /metrics exposition tests)
# ----------------------------------------------------------------------
import re as _re

_PROM_LINE_RE = _re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_PROM_LABEL_RE = _re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _prom_unescape(value):
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _prom_value(text):
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text):
    """Minimal text-format 0.0.4 parser: returns (types, samples).

    ``types`` maps metric name -> declared type; ``samples`` maps
    ``(name, frozenset(labels.items()))`` -> float value.  Raises
    ``ValueError`` on any line that is neither a comment, blank, nor a
    well-formed sample — the exposition tests use this as the format
    validity check.
    """
    types = {}
    samples = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _PROM_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        name, labels_text, value = match.groups()
        labels = {}
        if labels_text:
            consumed = _PROM_LABEL_RE.sub("", labels_text)
            if consumed.strip(", "):
                raise ValueError(f"malformed labels in: {line!r}")
            for label_match in _PROM_LABEL_RE.finditer(labels_text):
                labels[label_match.group(1)] = _prom_unescape(
                    label_match.group(2)
                )
        samples[(name, frozenset(labels.items()))] = _prom_value(value)
    return types, samples


def assert_mirror_matches_rebuild(kernel) -> None:
    """Every plane's and the memory side's arrays of a batch kernel whose
    object view was just written back equal those ``resync()`` rebuilds
    from that view."""
    incremental = [state.export_state() for state in kernel._states]
    memory = kernel._memory.export_state()
    kernel.resync()
    for state, before in zip(kernel._states, incremental):
        rebuilt = state.export_state()
        for field in ("fwd_len", "ret_len", "fwd_busy", "ret_busy"):
            for stage, (inc, reb) in enumerate(
                zip(before[field], rebuilt[field])
            ):
                assert (inc == reb).all(), (
                    f"{field}[{stage}] diverged from the object state"
                )
        assert before["fwd_tot"] == rebuilt["fwd_tot"]
        assert before["ret_tot"] == rebuilt["ret_tot"]
        for field in ("wait_occupancy", "wait_peak"):
            assert (before[field] == rebuilt[field]).all(), (
                f"{field} diverged from the wait buffers"
            )
    rebuilt = kernel._memory.export_state()
    for field, value in memory.items():
        assert value == rebuilt[field], f"MNI {field} diverged from the MNIs"
