"""Shared hypothesis strategies and helpers for the test suite."""

from __future__ import annotations

import dataclasses

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


def _message_view(message):
    return (message.tag, message.op, list(message.digits), message.is_reply,
            message.value, message.combine_depth, message.packets,
            message.enqueued_cycle)


def network_view(network):
    """One network copy's view: every switch's queues (slots and
    counters), output ports, wait buffers and counters, and the
    stage-delay counters."""
    switches = []
    for row in network.stages:
        for sw in row:
            queues = [(
                [(_message_view(s.message), s.already_combined)
                 for s in q._slots],
                q.used_packets, q.peak_packets, q.total_inserted,
                q.total_combined,
            ) for q in sw.to_mm + sw.to_pe]
            ports = [(p.busy_until, p.messages_sent)
                     for p in sw.mm_ports + sw.pe_ports]
            waits = [(list(wb._records), {
                tag: [(r.key_tag, r.plan, _message_view(r.new_message),
                       r.stage, r.created_cycle) for r in stack]
                for tag, stack in wb._records.items()
            }, wb.occupancy, wb.peak_occupancy, wb.total_insertions)
                for wb in sw.wait_buffers]
            switches.append((sw.stage, sw.index, queues, ports, waits,
                             dataclasses.astuple(sw.stats)))
    return (switches, list(network.stage_delay_sum),
            list(network.stage_delay_count))


def mni_view(mnis):
    """Every MNI's queued, in-service and outbound messages and
    counters."""
    return [(
        [(_message_view(m), ready) for m, ready in mni._inbound],
        mni._inbound_packets,
        None if mni._in_service is None
        else (_message_view(mni._in_service[0]), mni._in_service[1]),
        [_message_view(m) for m in mni.outbound],
        mni._link_busy_until, mni.requests_served, mni.busy_cycles,
        mni.module.accesses, mni.pending,
    ) for mni in mnis]


def object_view(machine):
    """Everything the machine's object view holds, read through its
    public readers: every network copy's :func:`network_view`, then
    the :func:`mni_view`.  Two machines in the same state read equal,
    whatever kernel runs them."""
    return ([network_view(network) for network in machine.networks],
            mni_view(machine.mnis))
