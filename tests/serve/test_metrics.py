"""The ``GET /metrics`` exposition plane and the serve fleet log."""

from __future__ import annotations

from helpers import parse_prometheus
from repro.serve import ServeError

ECHO_SPEC = {
    "experiment": "debug.echo",
    "base": {"probe": "metrics"},
    "axes": [{"name": "n", "values": [1, 2]}],
    "seed": 1,
}


class TestMetricsEndpoint:
    def test_scrape_is_valid_text_format(self, serve_app):
        text = serve_app.client().metrics()
        types, samples = parse_prometheus(text)  # raises on bad lines
        assert types["repro_serve_requests_total"] == "counter"
        assert types["repro_serve_latency_us"] == "histogram"
        assert types["repro_serve_uptime_seconds"] == "gauge"
        assert ("repro_pool_workers", frozenset()) in samples

    def test_request_counters_reflect_traffic(self, serve_app):
        client = serve_app.client()
        client.run(ECHO_SPEC)
        _, samples = parse_prometheus(client.metrics())
        computed = samples[("repro_serve_requests_total",
                            frozenset({("class", "computed")}))]
        assert computed == 1
        assert samples[("repro_serve_computations_total",
                        frozenset())] == 1

    def test_counters_are_monotonic_across_scrapes(self, serve_app):
        client = serve_app.client()
        label = ("repro_serve_requests_total",
                 frozenset({("class", "cache")}))
        seen = []
        client.run(ECHO_SPEC)
        for _ in range(3):
            client.run(ECHO_SPEC)  # repeats come off the content store
            _, samples = parse_prometheus(client.metrics())
            seen.append(samples[label])
        assert seen == sorted(seen)
        assert seen[-1] > seen[0]

    def test_stats_and_metrics_agree(self, serve_app):
        client = serve_app.client()
        client.run(ECHO_SPEC)
        try:
            client.run({"experiment": "no.such", "base": {}})
        except ServeError:
            pass
        stats = client.stats()
        _, samples = parse_prometheus(client.metrics())
        for name, count in stats["by_class"].items():
            assert samples[("repro_serve_requests_total",
                            frozenset({("class", name)}))] == count
        assert samples[("repro_serve_latency_us_count",
                        frozenset({("class", "computed")}))] \
            == stats["by_class"]["computed"]

    def test_cache_counters_exported(self, serve_app):
        client = serve_app.client()
        client.run(ECHO_SPEC)
        client.run(ECHO_SPEC)
        _, samples = parse_prometheus(client.metrics())
        assert samples[("repro_cache_hits_total", frozenset())] >= 2
        assert samples[("repro_cache_writes_total", frozenset())] >= 2

    def test_metrics_rejects_post_405(self, serve_app):
        import http.client

        conn = http.client.HTTPConnection(
            serve_app.host, serve_app.port, timeout=10
        )
        try:
            conn.request("POST", "/metrics")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_content_type(self, serve_app):
        import http.client

        conn = http.client.HTTPConnection(
            serve_app.host, serve_app.port, timeout=10
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert "version=0.0.4" in response.getheader("content-type")
            response.read()
        finally:
            conn.close()


class TestServeFleetLog:
    def test_served_events_carry_sweep_trace(self, serve_app):
        client = serve_app.client()
        envelope = client.run(ECHO_SPEC)
        sweep_trace = envelope["sweep"]["trace_id"]
        assert len(sweep_trace) == 16
        served = [e for e in serve_app.app.fleet.tail()
                  if e.kind == "served"]
        assert served
        assert served[-1].fields["status"] == 200
        assert served[-1].fields["served_by"] == "computed"
        assert served[-1].fields["sweep_trace"] == sweep_trace

    def test_cache_hits_carry_no_sweep_trace(self, serve_app):
        """A fully cached response touched no backend, so it names no
        sweep trace — the same "" a direct runner reports."""
        client = serve_app.client()
        client.run(ECHO_SPEC)
        envelope = client.run(ECHO_SPEC)
        assert envelope["served_by"] == "cache"
        assert envelope["sweep"]["trace_id"] == ""
        served = [e for e in serve_app.app.fleet.tail()
                  if e.kind == "served"]
        assert served[-1].fields["served_by"] == "cache"
        assert "sweep_trace" not in served[-1].fields

    def test_error_requests_logged_without_trace(self, serve_app):
        client = serve_app.client()
        try:
            client.run({"experiment": "no.such", "base": {}})
        except ServeError:
            pass
        served = [e for e in serve_app.app.fleet.tail()
                  if e.kind == "served"]
        assert served
        assert served[-1].fields["served_by"] == "error"
        assert "sweep_trace" not in served[-1].fields
