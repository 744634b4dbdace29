"""The aggregator/query daemon behind ``repro serve``.

:class:`TraceService` is an HTTP daemon (a route table on
:class:`~repro.service.http.Router`) that accepts trace chunks from
``repro push`` collectors and folds them incrementally
into one :class:`~repro.core.streaming.ChunkAccumulator` per registered
run — the deferred-fold discipline of the fused batch engine, applied
live.  Chunks may arrive from many clients, interleaved and out of
order: an in-order chunk folds immediately; an out-of-order chunk is
parked as a single-chunk partial accumulator and merged the instant the
sequence gap closes.  Because the accumulator's aggregation is
idempotent and associative with seam stitching, the finished report is
byte-identical to ``repro characterize`` over the same store, no matter
how the chunks were sliced or raced.

Queries (``/runs``, ``/report/<run>``, ``/figdata/<run>``) answer from
the accumulators alone — the daemon never re-reads a trace file.
Finalized reports are cached per fold-generation, so many concurrent
readers cost one finalize.

Thread discipline: HTTP handler threads never open ``observer.span()``
(the span stack is single-threaded by design); all observer mutation
happens under one metrics lock, per-run folding under that run's own
lock.  Per-run lifecycle lands in the observer's trace log as
structured events instead of spans.

Restarts: with ``snapshot_path`` (``repro serve --snapshot PATH``) each
accepted registration body and ingest frame is appended, as it arrives,
to a restart log of the wire's own bytes; a daemon started on the same
path replays it through :meth:`TraceService.register_run` and
:meth:`TraceService.ingest` and resumes mid-run, so accumulator
internals never reach disk.  ``stop()`` (wired to ``POST /shutdown``
and the CLI's signal handlers) fsyncs the log.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import time
from pathlib import Path

from repro.core.streaming import ChunkAccumulator, finalize_fused
from repro.errors import ServiceError, TraceError
from repro.obs.collector import Observer
from repro.obs.context import TraceContext
from repro.obs.sampler import Sampler
from repro.service.figdata import figdata_from_report
from repro.service.http import (
    _PROM_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
    HttpError,
    Reply,
    Router,
    json_reply,
)
from repro.service.wire import WIRE_MAGIC, decode_chunk, decode_table
from repro.trace.frame import FILE_DTYPE, JOB_DTYPE, FileTable, JobTable
from repro.trace.records import TraceHeader

log = logging.getLogger("repro.service")

__all__ = ["LOG_MAGIC", "TraceService"]

#: magic header of the restart log
LOG_MAGIC = b"RSVCLOG1\n"

#: each restart-log record: the body's length, then the body — a
#: registration's JSON or an ingest frame (told apart by the wire magic)
_RECORD_LEN = struct.Struct("<Q")

#: the plain-text answer to ``GET /``
_INDEX = (
    "repro trace service\n"
    "  GET  /runs            registered runs + chunk dirs\n"
    "  GET  /report/<run>    finished report (?format=json)\n"
    "  GET  /figdata/<run>   figure series (JSON)\n"
    "  GET  /metrics         daemon self-telemetry\n"
    "  GET  /healthz         liveness probe\n"
    "  POST /runs            register a run\n"
    "  POST /ingest          push one wire-framed chunk\n"
    "  POST /shutdown        graceful drain\n"
)


class _HttpError(HttpError, ServiceError):
    """A daemon request failure with its HTTP status; a
    :class:`~repro.errors.ServiceError` to direct callers and replay."""


class _RunState:
    """One registered run: its accumulator, side tables and fold window."""

    def __init__(
        self,
        run: str,
        n_chunks: int,
        n_events: int,
        header: TraceHeader,
        jobs: JobTable,
        files: FileTable,
    ) -> None:
        self.run = run
        self.n_chunks_expected = n_chunks
        self.n_events_expected = n_events
        self.header = header
        self.jobs = jobs
        self.files = files
        self.acc = ChunkAccumulator()
        self.next_seq = 0
        #: out-of-order chunks parked as single-chunk partials, keyed by seq
        self.pending: dict[int, ChunkAccumulator] = {}
        #: per-chunk directory entries keyed by seq (mirrors source_info)
        self.chunk_meta: dict[int, dict] = {}
        self.n_duplicates = 0
        self.registered_at = time.time()
        self.lock = threading.Lock()
        #: (fold generation, rendered text, report) — finalize once per fold
        self._report_cache: tuple[int, str, object] | None = None

    # callers hold self.lock for everything below

    @property
    def n_folded(self) -> int:
        return self.next_seq

    @property
    def complete(self) -> bool:
        return self.next_seq >= self.n_chunks_expected and not self.pending

    def fold(self, seq: int, events) -> str:
        """Fold or park one chunk; returns "folded" / "parked" / "duplicate"."""
        if seq >= self.n_chunks_expected:
            raise _HttpError(
                400,
                f"run {self.run!r} declared {self.n_chunks_expected} chunks; "
                f"chunk {seq} is out of range",
            )
        if seq < self.next_seq or seq in self.pending:
            self.n_duplicates += 1
            return "duplicate"
        n = len(events)
        self.chunk_meta[seq] = {
            "n": n,
            "t_min": float(events["time"][0]) if n else 0.0,
            "t_max": float(events["time"][-1]) if n else 0.0,
        }
        if seq == self.next_seq:
            self.acc.update(events)
            self.next_seq += 1
            while self.next_seq in self.pending:
                self.acc.merge(self.pending.pop(self.next_seq))
                self.next_seq += 1
            self._report_cache = None
            return "folded"
        part = ChunkAccumulator()
        part.update(events)
        self.pending[seq] = part
        return "parked"

    def report(self):
        """The finalized report (cached until the next fold advances)."""
        if not self.complete:
            raise _HttpError(
                409,
                f"run {self.run!r} is incomplete: folded {self.n_folded} of "
                f"{self.n_chunks_expected} chunks "
                f"({len(self.pending)} parked out of order)",
            )
        cached = self._report_cache
        if cached is not None and cached[0] == self.next_seq:
            return cached[1], cached[2]
        # finalize collapses the accumulator's part lists in place, which
        # is idempotent — later chunks still fold correctly after a query
        report = finalize_fused(self.acc, self.jobs, self.files)
        text = report.render() + "\n"
        self._report_cache = (self.next_seq, text, report)
        return text, report

    def summary(self) -> dict:
        """One ``/runs`` entry, shaped like ``trace.store.source_info``."""
        t0 = min((m["t_min"] for m in self.chunk_meta.values()), default=0.0)
        t1 = max((m["t_max"] for m in self.chunk_meta.values()), default=0.0)
        return {
            "run": self.run,
            "kind": "service",
            "complete": self.complete,
            "n_events": sum(m["n"] for m in self.chunk_meta.values()),
            "n_events_expected": self.n_events_expected,
            "n_chunks": len(self.chunk_meta),
            "n_chunks_expected": self.n_chunks_expected,
            "n_folded": self.n_folded,
            "n_parked": len(self.pending),
            "n_duplicates": self.n_duplicates,
            "n_jobs": len(self.jobs),
            "n_files": len(self.files),
            "time_span": [t0, t1],
            "header": self.header.to_dict(),
            "chunks": [
                {"seq": seq, **self.chunk_meta[seq]}
                for seq in sorted(self.chunk_meta)
            ],
        }


class TraceService(Router):
    """The collector → aggregator → query daemon (see module docstring)."""

    thread_name = "repro-trace-service"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_path: str | Path | None = None,
        observer: Observer | None = None,
        sample_period_s: float = 0.5,
    ) -> None:
        super().__init__(host, port)
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        self._runs: dict[str, _RunState] = {}
        self._runs_lock = threading.Lock()
        self._t0 = time.time()
        # the daemon observes itself: with the CLI's --obs the session
        # observer is passed in (so `repro --obs X serve` writes the
        # daemon's own run report); otherwise a private one is built
        # with a trace log for the run-lifecycle events
        if observer is not None:
            self._observer = observer
        else:
            self._observer = Observer(TraceContext.root(worker="service"))
        self._own_sampler = self._observer.sampler is None
        if self._own_sampler:
            self._observer.sampler = Sampler(
                self._observer, period_s=sample_period_s
            )
        # Observer dicts and the trace log are not thread-safe; every
        # mutation from a request thread goes through this lock
        self._obs_lock = threading.Lock()
        # finalize_fused opens spans on the *global* obs singleton, whose
        # span stack is single-threaded by design — at most one request
        # thread may finalize at a time, across all runs
        self._finalize_lock = threading.Lock()
        # restart-log appends: the innermost lock, held while taking none
        self._log_lock = threading.Lock()
        self._log = None
        if self.snapshot_path is not None:
            end = self._replay(self.snapshot_path)
            self._log = open(self.snapshot_path, "ab")
            self._log.truncate(end)  # drops a torn last record
            if end == 0:
                self._log.write(LOG_MAGIC)
                self._log.flush()

    # -- observer plumbing -----------------------------------------------------

    def _add(self, name: str, value: int | float = 1) -> None:
        with self._obs_lock:
            self._observer.add(name, value)

    def _hist(self, name: str, value: float) -> None:
        with self._obs_lock:
            self._observer.hist(name, value)

    def _event(self, kind: str, name: str, **fields) -> None:
        with self._obs_lock:
            self._observer.event(kind, name, **fields)

    def _refresh_gauges(self) -> None:
        with self._runs_lock:
            states = list(self._runs.values())
        n_parked = sum(len(s.pending) for s in states)
        n_complete = sum(1 for s in states if s.complete)
        with self._obs_lock:
            self._observer.gauge("service.runs.registered", len(states))
            self._observer.gauge("service.runs.active", len(states) - n_complete)
            self._observer.gauge("service.runs.complete", n_complete)
            self._observer.gauge("service.queue.parked_chunks", n_parked)

    # -- request handling ------------------------------------------------------

    def _state(self, run: str) -> _RunState:
        with self._runs_lock:
            state = self._runs.get(run)
        if state is None:
            raise _HttpError(404, f"no run {run!r} is registered here")
        return state

    def register_run(self, payload: bytes) -> dict:
        """``POST /runs``: declare a run and ship its side tables."""
        try:
            meta = json.loads(payload)
            run = str(meta["run"])
            n_chunks = int(meta["n_chunks"])
            n_events = int(meta["n_events"])
            header = TraceHeader.from_dict(meta["header"])
            jobs = JobTable(decode_table(meta.get("jobs"), JOB_DTYPE, "jobs"))
            files = FileTable(
                decode_table(meta.get("files"), FILE_DTYPE, "files")
            )
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError,
                ServiceError, TraceError) as exc:
            raise _HttpError(400, f"malformed run registration: {exc}")
        if n_chunks < 0 or n_events < 0:
            raise _HttpError(400, "run registration counts must be >= 0")
        with self._runs_lock:
            existing = self._runs.get(run)
            if existing is not None:
                # concurrent pushers of one run all register; identical
                # declarations are idempotent, divergent ones conflict
                if (
                    existing.n_chunks_expected != n_chunks
                    or existing.n_events_expected != n_events
                ):
                    raise _HttpError(
                        409,
                        f"run {run!r} already registered with "
                        f"{existing.n_chunks_expected} chunks / "
                        f"{existing.n_events_expected} events",
                    )
                return {"status": "already-registered", "run": run}
            # logged before ingest can see the run, so no chunk record
            # ever precedes its run's registration in the log
            self._append(payload)
            self._runs[run] = _RunState(
                run, n_chunks, n_events, header, jobs, files
            )
        self._add("service.runs.registered_total")
        self._event(
            "service", f"run/{run}/registered",
            n_chunks=n_chunks, n_events=n_events,
        )
        self._refresh_gauges()
        return {"status": "registered", "run": run, "n_chunks": n_chunks}

    def ingest(self, payload: bytes) -> dict:
        """``POST /ingest``: fold one wire-framed chunk."""
        try:
            run, seq, events = decode_chunk(payload)
        except ServiceError as exc:
            self._add("service.ingest.rejected_total")
            raise _HttpError(400, str(exc))
        state = self._state(run)
        t0 = time.perf_counter()
        with state.lock:
            outcome = state.fold(seq, events)
            fold_s = time.perf_counter() - t0
            # duplicates too: a replay must rebuild n_duplicates
            self._append(payload)
            complete = state.complete
            n_folded = state.n_folded
        with self._obs_lock:
            o = self._observer
            o.add("service.ingest.chunks_total")
            o.add("service.ingest.events_total", len(events))
            o.add("service.ingest.bytes_total", len(payload))
            if outcome == "duplicate":
                o.add("service.ingest.duplicate_chunks_total")
            o.hist("service.fold.latency_s", fold_s)
            o.hist("service.ingest.chunk_events", len(events))
        if complete and outcome == "folded":
            self._event(
                "service", f"run/{run}/complete",
                n_chunks=n_folded,
                wall_s=round(time.time() - state.registered_at, 6),
            )
        self._refresh_gauges()
        return {
            "status": outcome,
            "run": run,
            "seq": seq,
            "n_folded": n_folded,
            "complete": complete,
        }

    def run_summaries(self) -> list[dict]:
        with self._runs_lock:
            states = sorted(self._runs.values(), key=lambda s: s.run)
        out = []
        for state in states:
            with state.lock:
                out.append(state.summary())
        return out

    def report_text(self, run: str) -> str:
        state = self._state(run)
        t0 = time.perf_counter()
        with state.lock, self._finalize_lock:
            text, _ = state.report()
        self._hist("service.report.latency_s", time.perf_counter() - t0)
        self._add("service.report.served_total")
        return text

    def report_json(self, run: str) -> dict:
        state = self._state(run)
        with state.lock, self._finalize_lock:
            _, report = state.report()
            payload = report.to_dict()
        self._add("service.report.served_total")
        return payload

    def figdata(self, run: str) -> dict:
        state = self._state(run)
        with state.lock, self._finalize_lock:
            _, report = state.report()
            payload = figdata_from_report(report)
        self._add("service.figdata.served_total")
        return payload

    def health(self) -> dict:
        with self._runs_lock:
            states = list(self._runs.values())
        return {
            "status": "ok",
            "service": "repro-trace-service",
            "uptime_s": round(time.time() - self._t0, 3),
            "pid": os.getpid(),
            "n_runs": len(states),
            "n_complete": sum(1 for s in states if s.complete),
            "snapshot_path": (
                str(self.snapshot_path) if self.snapshot_path else None
            ),
        }

    def metrics_text(self) -> str:
        from repro.obs.export import to_prometheus

        self._refresh_gauges()
        with self._obs_lock:
            sampler = self._observer.sampler
            timeseries = sampler.peek() if sampler is not None else None
            report = self._observer.report(
                command=["repro", "serve"], timeseries=timeseries
            )
        return to_prometheus(report)

    # -- restart log -----------------------------------------------------------

    def _append(self, body: bytes) -> None:
        """Log one accepted request body (no-op without ``snapshot_path``)."""
        with self._log_lock:
            if self._log is None:
                return
            if self._log.closed:
                raise _HttpError(503, "trace service is draining")
            self._log.write(_RECORD_LEN.pack(len(body)))
            self._log.write(body)
            self._log.flush()

    def _replay(self, path: Path) -> int:
        """Re-apply a restart log's whole records; returns where they end."""
        data = path.read_bytes() if path.exists() else b""
        if not data.startswith(LOG_MAGIC):
            if LOG_MAGIC.startswith(data):  # new, or torn while created
                return 0
            raise ServiceError(
                f"{path} is not a restart log: it does not start with the "
                f"log magic {LOG_MAGIC!r}"
            )
        off, n_records = len(LOG_MAGIC), 0
        while off < len(data):
            end = off + _RECORD_LEN.size
            if end <= len(data):
                end += _RECORD_LEN.unpack_from(data, off)[0]
            if end > len(data):
                log.warning(
                    "restart log %s: dropping the torn record at byte %d",
                    path, off,
                )
                break
            body = data[off + _RECORD_LEN.size : end]
            try:
                if body.startswith(WIRE_MAGIC):
                    self.ingest(body)
                else:
                    self.register_run(body)
            except ServiceError as exc:
                raise ServiceError(
                    f"restart log {path}: record at byte {off} failed to "
                    f"replay: {exc}"
                ) from None
            off, n_records = end, n_records + 1
        self._add("service.log.replayed_records_total", n_records)
        log.info("service replayed %d records from %s", n_records, path)
        return off

    # -- routes and lifecycle --------------------------------------------------

    def routes(self) -> dict:
        return {
            ("GET", "/"): lambda req: Reply(200, TEXT_CONTENT_TYPE, _INDEX),
            ("GET", "/healthz"): lambda req: json_reply(self.health()),
            ("GET", "/metrics"): lambda req: Reply(
                200, _PROM_CONTENT_TYPE, self.metrics_text()
            ),
            ("GET", "/runs"): lambda req: json_reply(
                {"runs": self.run_summaries()}
            ),
            ("GET", "/report/"): self._report_route,
            ("GET", "/figdata/"): lambda req: json_reply(self.figdata(req.arg)),
            ("POST", "/runs"): lambda req: json_reply(
                self.register_run(req.body())
            ),
            ("POST", "/ingest"): lambda req: json_reply(
                self.ingest(req.body())
            ),
            # stop from another thread once the answer is out: shutdown()
            # deadlocks when called from a handler the serve loop waits on
            ("POST", "/shutdown"): lambda req: json_reply(
                {"status": "draining"},
                after=threading.Thread(
                    target=self.stop, name="repro-service-drain", daemon=True,
                ).start,
            ),
        }

    def _report_route(self, req) -> Reply:
        if "format=json" in req.query:
            return json_reply(self.report_json(req.arg))
        return Reply(200, TEXT_CONTENT_TYPE, self.report_text(req.arg))

    def start(self) -> "TraceService":
        """Bind and serve on a daemon thread (idempotent)."""
        sampler = self._observer.sampler
        if sampler is not None:
            sampler.start()
        return super().start()

    def _drain(self) -> None:
        """Fsync and close the restart log, halt the sampler."""
        with self._log_lock:
            if self._log is not None and not self._log.closed:
                self._log.flush()
                os.fsync(self._log.fileno())
                self._log.close()
        sampler = self._observer.sampler
        if self._own_sampler and sampler is not None:
            sampler.stop()

