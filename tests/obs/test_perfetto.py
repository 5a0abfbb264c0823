"""Chrome/Perfetto trace export: document structure and flow pairing."""

import json

import pytest

from repro import FetchAdd, MachineConfig, Ultracomputer
from repro.obs import (
    IncompleteTraceError,
    chrome_trace,
    reconstruct_spans,
    write_chrome_trace,
)
from repro.obs.perfetto import PID_MEMORY, PID_NETWORK, PID_PES


def _traced_run(pes=8, rounds=2, capacity=4096, kernel="dense"):
    machine = Ultracomputer(MachineConfig(
        n_pes=pes, instrument=True, trace_capacity=capacity, kernel=kernel,
    ))

    def program(pe_id):
        for _ in range(rounds):
            yield FetchAdd(0, 1)

    machine.spawn_many(pes, program)
    return machine.run()


class TestChromeTrace:
    def test_document_structure(self):
        result = _traced_run()
        doc = chrome_trace(result.trace)
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "M" in phases and "X" in phases
        assert doc["otherData"]["dropped"] == 0
        assert doc["otherData"]["events"] == len(result.trace)
        for event in events:
            if event["ph"] == "X":
                assert {"pid", "tid", "ts", "dur", "name"} <= set(event)
                assert event["dur"] >= 1

    def test_one_flow_pair_per_combine(self):
        result = _traced_run()
        events = chrome_trace(result.trace)["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == result.combines
        assert len(finishes) == result.combines
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_tracks_cover_all_three_layers(self):
        result = _traced_run()
        events = chrome_trace(result.trace)["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {PID_PES, PID_NETWORK, PID_MEMORY} <= pids
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(names) == 3

    def test_write_is_valid_json(self, tmp_path):
        result = _traced_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, chrome_trace(result.trace))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"

    def test_tolerates_truncated_trace(self):
        # Unlike span reconstruction, the exporter renders what survived
        # (a partial picture is still loadable) and flags the loss.
        result = _traced_run(capacity=16)
        assert result.trace_dropped > 0
        doc = chrome_trace(result.trace, dropped=result.trace_dropped)
        assert doc["otherData"]["dropped"] == result.trace_dropped
        assert doc["traceEvents"]

    def test_empty_trace_has_only_metadata(self):
        doc = chrome_trace([])
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert doc["otherData"]["events"] == 0


@pytest.mark.parametrize("kernel", ["dense", "batch"])
class TestAgreesWithSpans:
    """The export draws each request from the join that
    :func:`reconstruct_spans` makes, so its slices and flows agree with
    the spans field by field."""

    @pytest.fixture
    def run(self, kernel):
        result = _traced_run(pes=16, rounds=3, kernel=kernel)
        assert result.combines > 0
        return chrome_trace(result.trace)["traceEvents"], \
            reconstruct_spans(result.trace)

    def test_pe_slice_lasts_the_transit_latency(self, run):
        events, spans = run
        slices = [e for e in events if e["ph"] == "X" and e["pid"] == PID_PES]
        assert len(slices) == len(spans)
        for event in slices:
            span = spans[event["args"]["tag"]]
            assert event["name"] == f"req {span.tag}"
            assert event["dur"] == span.transit_latency

    def test_flow_ids_are_the_absorbed_tags(self, run):
        events, spans = run
        absorbed = [s.tag for s in spans if s.combined_into is not None]
        assert absorbed
        for ph in ("s", "f"):
            ids = [e["id"] for e in events if e["ph"] == ph]
            assert sorted(ids) == sorted(absorbed)

    def test_one_forward_slice_per_hop(self, run):
        events, spans = run
        forward = [e for e in events if e["ph"] == "X"
                   and e["pid"] == PID_NETWORK and e["cat"] == "forward"]
        assert len(forward) == sum(len(span.hops) for span in spans)


@pytest.mark.parametrize("kernel", ["dense", "batch"])
def test_truncated_ring_draws_requests_without_issue(kernel):
    result = _traced_run(capacity=16, kernel=kernel)
    assert result.trace_dropped > 0
    events = chrome_trace(result.trace, dropped=result.trace_dropped)[
        "traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    on_pes = {e["args"]["tag"] for e in slices if e["pid"] == PID_PES}
    on_stages = {e["args"]["tag"] for e in slices if e["pid"] == PID_NETWORK}
    assert on_stages - on_pes
    with pytest.raises(IncompleteTraceError):
        reconstruct_spans(result.trace)
    with pytest.raises(IncompleteTraceError):
        reconstruct_spans(result.trace, dropped=result.trace_dropped)
