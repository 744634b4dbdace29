"""``repro push`` — the collector-side client of the trace service.

:class:`ServiceClient` is a thin stdlib-``urllib`` HTTP client: it
registers a run (shipping the tiny job/file side tables and trace
header inside the registration JSON), then streams the source's chunks
as :mod:`~repro.service.wire` frames.  Many clients may push one run
concurrently — ``stride``/``offset`` let client *i* of *k* take chunks
``i, i+k, i+2k, ...`` so the daemon sees an interleaved, out-of-order
chunk stream, exactly the case its deferred-fold discipline exists for.

Every HTTP-level failure surfaces as :class:`~repro.errors.ServiceError`
carrying the daemon's error body, so CLI users see the daemon's own
explanation (\"run 'x' already registered with 12 chunks\") rather than
a bare status code.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from urllib.parse import quote

from repro.errors import ServiceError
from repro.service.wire import encode_chunk, encode_table
from repro.trace.store import TraceSource

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talks to one :class:`~repro.service.daemon.TraceService`."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        route: str,
        data: bytes | None = None,
        content_type: str = "application/octet-stream",
    ) -> bytes:
        req = urllib.request.Request(
            self.base_url + route, data=data, method=method
        )
        if data is not None:
            req.add_header("Content-Type", content_type)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            body = exc.read().decode("utf-8", "replace").strip()
            try:
                body = json.loads(body).get("error", body)
            except ValueError:
                pass
            raise ServiceError(
                f"{method} {route} failed with HTTP {exc.code}: {body}"
            )
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach trace service at {self.base_url}: {exc.reason}"
            )

    def _get_json(self, route: str) -> dict:
        return json.loads(self._request("GET", route))

    def _post_json(self, route: str, payload: dict) -> dict:
        data = json.dumps(payload).encode("utf-8")
        return json.loads(
            self._request("POST", route, data, "application/json")
        )

    # -- collector side --------------------------------------------------------

    def register(self, source: TraceSource, run: str) -> dict:
        """Declare ``run`` on the daemon, shipping its side tables."""
        return self._post_json(
            "/runs",
            {
                "run": run,
                "n_chunks": source.n_chunks,
                "n_events": source.n_events,
                "header": source.header.to_dict(),
                "jobs": encode_table(source.jobs.data),
                "files": encode_table(source.files.data),
            },
        )

    def push_chunk(self, run: str, seq: int, events) -> dict:
        """Frame and send one chunk."""
        frame = encode_chunk(run, seq, events)
        return json.loads(self._request("POST", "/ingest", frame))

    def push(
        self,
        source: TraceSource,
        run: str,
        stride: int = 1,
        offset: int = 0,
        register: bool = True,
    ) -> dict:
        """Stream this client's share of a source's chunks.

        With the defaults one client pushes everything; with
        ``stride=k, offset=i`` it pushes chunks ``i, i+k, ...`` of a
        *k*-client team.  Returns a summary of what was sent.
        """
        if stride < 1 or not 0 <= offset < stride:
            raise ServiceError(
                f"need stride >= 1 and 0 <= offset < stride, "
                f"got stride={stride} offset={offset}"
            )
        if register:
            self.register(source, run)
        n_chunks = n_events = 0
        last: dict = {}
        for seq in range(offset, source.n_chunks, stride):
            events = source.chunk(seq)
            last = self.push_chunk(run, seq, events)
            n_chunks += 1
            n_events += len(events)
        return {
            "run": run,
            "n_chunks_sent": n_chunks,
            "n_events_sent": n_events,
            "complete": bool(last.get("complete", False)),
        }

    # -- query side ------------------------------------------------------------

    def health(self) -> dict:
        return self._get_json("/healthz")

    def runs(self) -> list[dict]:
        return self._get_json("/runs")["runs"]

    # a run id is one path segment: "/", "?" and spaces are percent-encoded

    def report_text(self, run: str) -> str:
        route = f"/report/{quote(run, safe='')}"
        return self._request("GET", route).decode("utf-8")

    def report_json(self, run: str) -> dict:
        return self._get_json(f"/report/{quote(run, safe='')}?format=json")

    def figdata(self, run: str) -> dict:
        return self._get_json(f"/figdata/{quote(run, safe='')}")

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics").decode("utf-8")

    def shutdown(self) -> dict:
        """Ask the daemon to drain gracefully (fsync its restart log, exit)."""
        return self._post_json("/shutdown", {})

    # -- synchronization helpers -----------------------------------------------

    def wait_healthy(self, timeout: float = 10.0) -> dict:
        """Poll ``/healthz`` until the daemon answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def wait_complete(self, run: str, timeout: float = 60.0) -> dict:
        """Poll ``/runs`` until ``run`` has folded every declared chunk."""
        deadline = time.monotonic() + timeout
        while True:
            for summary in self.runs():
                if summary["run"] == run and summary["complete"]:
                    return summary
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"run {run!r} did not complete within {timeout} s"
                )
            time.sleep(0.05)
