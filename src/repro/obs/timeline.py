"""Laying a traced run's event streams out as one timeline.

Recorder-style tooling (PAPERS.md) makes the case that per-rank traces
only become useful once they are stitched into a single visualizable
picture.  This module is that stitch for the streams
:mod:`repro.obs.context` collects.  A run records one stream; a report
saved while analyses still fanned out across worker processes nests one
stream per worker under ``children``, and those still load here.

- **Clock alignment.**  Every stream carries an ``(epoch0, perf0)``
  calibration pair taken at stream creation; an event stamped ``t`` on
  a stream's process-local monotonic clock lands on the shared timeline
  at ``epoch0 + (t - perf0)``, shifted so the earliest event across all
  streams is zero.  Within one stream, ordering is exactly the
  monotonic-clock ordering; across streams it is as good as the hosts'
  wall clocks (on one machine: microseconds).
- **Span reconstruction.**  ``B``/``E`` event pairs become closed
  spans; spans still open when their stream ended are emitted with
  ``unclosed: true`` and extended to the stream's last event.  An ``E``
  whose ``B`` a full log evicted closes nothing and is skipped.  Each
  stream additionally gets a synthetic *root* span (a worker's
  ``task_start``→``task_end`` execution window, or the stream's full
  event range) carrying the stream's ``parent_span``, so every nested
  worker span chains back to the span that was open in the dispatching
  process.

The result exports as Chrome trace-event JSON — the ``traceEvents``
array format both ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ load directly: one named process lane per
stream (``M`` metadata events) and ``X`` complete events for spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObsReportError


@dataclass
class Timeline:
    """The merged, clock-aligned view of one traced run."""

    run_id: str = ""
    #: epoch seconds of timeline zero (the earliest event anywhere)
    t0_epoch: float = 0.0
    #: per-stream lane metadata: worker, pid, root_span, parent_span, ...
    streams: list[dict] = field(default_factory=list)
    #: reconstructed spans: name/span/parent/stream/t0_s/t1_s/...
    spans: list[dict] = field(default_factory=list)
    #: total events dropped to stream capacity limits
    n_dropped: int = 0

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    def span_ids(self) -> set[str]:
        """Every span id present on the timeline."""
        return {s["span"] for s in self.spans}

    def unresolved_parents(self) -> list[dict]:
        """Spans whose parent id resolves to no span on the timeline."""
        known = self.span_ids()
        return [
            s for s in self.spans
            if s.get("parent") and s["parent"] not in known
        ]


def _flatten_streams(trace: dict) -> list[dict]:
    streams: list[dict] = []

    def walk(stream: dict) -> None:
        streams.append(stream)
        for child in stream.get("children", ()):
            walk(child)

    walk(trace)
    return streams


def _trace_of(source) -> dict:
    """Accept a RunReport, a report payload dict, or a raw trace payload."""
    trace = getattr(source, "trace", None)
    if trace is None and isinstance(source, dict):
        # a report payload has "trace"; a raw trace payload has "events"
        trace = source.get("trace") if "events" not in source else source
    if not trace or not isinstance(trace, dict):
        raise ObsReportError(
            "no trace in input: the run was not traced (schema v3 reports "
            "record one when --obs is on; older reports have none)"
        )
    return trace


def build_timeline(source) -> Timeline:
    """Merge every stream of a traced run into one :class:`Timeline`.

    ``source`` may be a :class:`~repro.obs.report.RunReport`, its
    ``to_dict`` payload, or a raw trace payload
    (:meth:`~repro.obs.context.TraceLog.payload`).  Raises
    :class:`~repro.errors.ObsReportError` when there is no trace.
    """
    trace = _trace_of(source)
    raw_streams = _flatten_streams(trace)

    # pass 1: clock alignment — find the earliest aligned instant
    def aligned(stream: dict, t: float) -> float:
        return float(stream.get("epoch0", 0.0)) + (
            t - float(stream.get("perf0", 0.0))
        )

    t0_epoch = min(
        (
            aligned(s, s["events"][0]["t"])
            for s in raw_streams
            if s.get("events")
        ),
        default=0.0,
    )

    timeline = Timeline(run_id=str(trace.get("run_id", "")), t0_epoch=t0_epoch)
    spans: list[dict] = []

    for sid, stream in enumerate(raw_streams):
        events = stream.get("events", ())
        worker = str(stream.get("worker", f"stream{sid}"))
        rel = (
            lambda t, _s=stream: round(aligned(_s, t) - t0_epoch, 9)
        )
        times = [rel(e["t"]) for e in events]
        t_lo = min(times) if times else 0.0
        t_hi = max(times) if times else 0.0
        timeline.streams.append({
            "stream": sid,
            "worker": worker,
            "pid": int(stream.get("pid", 0)),
            "root_span": str(stream.get("root_span", "")),
            "parent_span": str(stream.get("parent_span", "")),
            "t0_s": t_lo,
            "t1_s": t_hi,
            "n_events": len(events),
        })
        timeline.n_dropped += int(stream.get("n_dropped", 0))

        # reconstruct B/E spans and each worker's execution window
        open_spans: dict[str, dict] = {}
        order: list[str] = []
        task_window: list[float] = []
        for e, t in zip(events, times):
            ev = e["ev"]
            if ev == "B":
                node = {
                    "name": e["name"],
                    "span": e.get("span", ""),
                    "parent": e.get("parent", ""),
                    "stream": sid,
                    "worker": worker,
                    "t0_s": t,
                    "t1_s": t,
                }
                open_spans[node["span"]] = node
                order.append(node["span"])
            elif ev == "E":
                node = open_spans.pop(e.get("span", ""), None)
                if node is not None:
                    order.remove(node["span"])
                    node["t1_s"] = t
                    if e.get("error"):
                        node["error"] = e["error"]
                    spans.append(node)
            elif ev in ("task_start", "task_end"):
                task_window.append(t)
        # spans the stream never closed (a crash, or a live snapshot)
        for span_id in order:
            node = open_spans[span_id]
            node["t1_s"] = t_hi
            node["unclosed"] = True
            spans.append(node)

        # synthetic per-stream root span: the worker's execution window
        # (its cross-process parent is the dispatching process's span)
        root = {
            "name": worker,
            "span": str(stream.get("root_span", "")),
            "parent": str(stream.get("parent_span", "")),
            "stream": sid,
            "worker": worker,
            "t0_s": min(task_window) if task_window else t_lo,
            "t1_s": max(task_window) if task_window else t_hi,
            "root": True,
        }
        spans.append(root)

    spans.sort(key=lambda s: (s["t0_s"], s["stream"]))
    timeline.spans = spans
    return timeline


# -- Chrome trace-event / Perfetto export -------------------------------------


def to_chrome_trace(timeline: Timeline) -> dict:
    """The timeline as a Chrome trace-event JSON object.

    One process lane per stream (named after the worker) and ``X``
    complete events for spans.  Loadable by ``chrome://tracing`` and
    ui.perfetto.dev.
    """
    events: list[dict] = []
    for s in timeline.streams:
        lane = s["stream"]
        events.append({
            "ph": "M", "name": "process_name", "pid": lane, "tid": 0,
            "args": {"name": f"{s['worker']} (pid {s['pid']})"},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": lane, "tid": 0,
            "args": {"sort_index": lane},
        })
    for span in timeline.spans:
        args = {"span": span["span"], "parent": span["parent"]}
        if span.get("error"):
            args["error"] = span["error"]
        if span.get("unclosed"):
            args["unclosed"] = True
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": "span" if not span.get("root") else "worker",
            "pid": span["stream"],
            "tid": 0,
            "ts": round(span["t0_s"] * 1e6, 3),
            "dur": round(max(0.0, span["t1_s"] - span["t0_s"]) * 1e6, 3),
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run_id": timeline.run_id,
            "t0_epoch": timeline.t0_epoch,
            "n_streams": timeline.n_streams,
            "n_dropped": timeline.n_dropped,
        },
    }


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema-check a :func:`to_chrome_trace` payload; returns problems.

    An empty list means every event carries the fields the Perfetto /
    chrome://tracing loaders require with sane types and every flow
    start has a matching flow end.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    flows: dict[str, set[str]] = {}
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("X", "M", "s", "f", "i", "B", "E"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(e.get("name"), str) or not e["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(e.get("pid"), int):
            problems.append(f"{where}: pid must be an int")
        if ph == "M":
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
        if ph in ("s", "f"):
            fid = e.get("id")
            if not isinstance(fid, (str, int)):
                problems.append(f"{where}: flow event needs an id")
            else:
                flows.setdefault(str(fid), set()).add(ph)
    for fid, phases in sorted(flows.items()):
        if phases != {"s", "f"}:
            problems.append(f"flow {fid!r}: unpaired ({'/'.join(sorted(phases))})")
    return problems


def write_chrome_trace(timeline: Timeline, path: str | Path) -> Path:
    """Export the timeline to ``path`` as Chrome trace-event JSON."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(timeline)) + "\n")
    return path


def render_summary(timeline: Timeline) -> str:
    """A terminal one-glance summary of the merged timeline."""
    lines = [
        f"timeline — run {timeline.run_id or '(unknown)'}: "
        f"{timeline.n_streams} streams, {len(timeline.spans)} spans"
        + (f", {timeline.n_dropped} events dropped" if timeline.n_dropped else "")
    ]
    for s in timeline.streams:
        lines.append(
            f"  [{s['stream']:>2}] {s['worker']:<10} pid {s['pid']:<7} "
            f"{s['n_events']:>5} events  "
            f"{s['t0_s']:.6f}s -> {s['t1_s']:.6f}s"
        )
    unresolved = timeline.unresolved_parents()
    if unresolved:
        lines.append(
            f"  WARNING: {len(unresolved)} spans with unresolvable parents"
        )
    return "\n".join(lines)
