"""Live telemetry endpoint (obs v3): /metrics, /healthz, /timeline.

Every test binds port 0 (an OS-assigned ephemeral port) so suites can
run in parallel, and drives the server with plain ``urllib`` — the
same way the CI curl smoke does.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import Observer, TraceContext
from repro.obs.report import RunReport
from repro.obs.server import ObsServer


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8")


def _traced_report() -> RunReport:
    observer = Observer(TraceContext.root())
    with observer.span("phase"):
        observer.add("events", 42)
    return observer.report(command=["repro", "characterize"])


class TestConstruction:
    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError):
            ObsServer()
        with pytest.raises(ValueError):
            ObsServer(observer=Observer(), report=RunReport(command=[]))

    def test_modes(self):
        assert ObsServer(observer=Observer()).mode == "live"
        assert ObsServer(report=RunReport(command=[])).mode == "static"


class TestStaticServer:
    @pytest.fixture()
    def server(self):
        with ObsServer(report=_traced_report()) as server:
            yield server

    def test_ephemeral_port_resolves(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_healthz(self, server):
        status, ctype, body = _get(f"{server.url}/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["mode"] == "static"
        assert health["command"] == ["repro", "characterize"]
        assert health["run_id"]

    def test_metrics_is_prometheus_text(self, server):
        status, ctype, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        assert "repro_events_total 42" in body

    def test_timeline_is_valid_chrome_trace(self, server):
        from repro.obs.timeline import validate_chrome_trace

        status, ctype, body = _get(f"{server.url}/timeline")
        assert status == 200 and ctype == "application/json"
        assert validate_chrome_trace(json.loads(body)) == []

    def test_index_lists_routes(self, server):
        status, _, body = _get(f"{server.url}/")
        assert status == 200
        for route in ("/metrics", "/healthz", "/timeline"):
            assert route in body

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.url}/nope")
        assert err.value.code == 404
        payload = json.loads(err.value.read().decode("utf-8"))
        assert payload["error"] == "no such route /nope"

    def test_timeline_404_when_run_was_not_traced(self):
        untraced = Observer()  # no TraceContext
        untraced.add("n", 1)
        report = untraced.report(command=["x"])
        with ObsServer(report=report) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/timeline")
            assert err.value.code == 404
            payload = json.loads(err.value.read().decode("utf-8"))
            assert "no trace" in payload["error"]


class TestLiveServer:
    def test_metrics_reflect_updates_between_scrapes(self):
        observer = obs.enable(TraceContext.root())
        with ObsServer(observer=observer, command=["live"]) as server:
            observer.add("ticks", 1)
            _, _, body = _get(f"{server.url}/metrics")
            assert "repro_ticks_total 1" in body
            observer.add("ticks", 2)
            _, _, body = _get(f"{server.url}/metrics")
            assert "repro_ticks_total 3" in body

    def test_healthz_reports_pid_and_trace_growth(self):
        import os

        observer = obs.enable(TraceContext.root())
        with ObsServer(observer=observer) as server:
            with obs.span("working"):
                _, _, body = _get(f"{server.url}/healthz")
            health = json.loads(body)
            assert health["mode"] == "live"
            assert health["pid"] == os.getpid()
            assert health["run_id"] == observer.tracelog.context.run_id
            assert health["n_trace_events"] >= 1

    def test_live_timeline_includes_spans_so_far(self):
        observer = obs.enable(TraceContext.root())
        with obs.span("early"):
            pass
        with ObsServer(observer=observer) as server:
            _, _, body = _get(f"{server.url}/timeline")
        names = {
            e["name"] for e in json.loads(body)["traceEvents"]
            if e["ph"] == "X"
        }
        assert "early" in names

    def test_scrape_does_not_drain_the_sampler_ring(self):
        from repro.obs.sampler import Sampler

        observer = obs.enable(TraceContext.root())
        sampler = Sampler(observer, period_s=60.0)
        sampler.start()
        try:
            sampler.sample_once()
            observer.sampler = sampler
            with ObsServer(observer=observer) as server:
                _get(f"{server.url}/metrics")
                _get(f"{server.url}/metrics")
            assert sampler.peek()["n_samples"] >= 1
        finally:
            sampler.stop()

    def test_stop_is_idempotent_and_releases_the_port(self):
        observer = obs.enable(TraceContext.root())
        server = ObsServer(observer=observer).start()
        url = server.url
        server.stop()
        server.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(f"{url}/healthz")


class TestSocketHygiene:
    def test_rebind_same_port_immediately(self):
        """SO_REUSEADDR: a restarted server rebinds its old port at once."""
        first = ObsServer(report=_traced_report()).start()
        port = first.port
        first.stop()
        second = ObsServer(report=_traced_report(), port=port).start()
        try:
            assert second.port == port
            status, _, _ = _get(second.url + "/healthz")
            assert status == 200
        finally:
            second.stop()

    def test_ephemeral_port_resolved_and_reported(self):
        server = ObsServer(report=_traced_report(), port=0)
        assert server.port == 0  # unresolved until bind
        server.start()
        try:
            assert server.port != 0
            assert f":{server.port}" in server.url
        finally:
            server.stop()

    def test_server_class_flags(self):
        from http.server import ThreadingHTTPServer

        from repro.obs.server import ReusableThreadingHTTPServer

        assert issubclass(ReusableThreadingHTTPServer, ThreadingHTTPServer)
        assert ReusableThreadingHTTPServer.allow_reuse_address is True
        assert ReusableThreadingHTTPServer.daemon_threads is True
