"""Laying a traced run's event stream out as one timeline.

Recorder-style tooling (PAPERS.md) makes the case that a trace becomes
useful once it is laid out as one visualizable picture.  This module
does that for the stream :mod:`repro.obs.context` records, one per run.
(A report saved while analyses still fanned out across worker processes
nests their streams under ``children``; those are ignored.)

- **Clock alignment.**  The stream carries an ``(epoch0, perf0)``
  calibration pair taken at its creation; an event stamped ``t`` on
  the process-local monotonic clock lands at ``epoch0 + (t - perf0)``,
  shifted so the stream's first event is zero.
- **Span reconstruction.**  ``B``/``E`` event pairs become closed
  spans; spans still open when the stream ended are emitted with
  ``unclosed: true`` and extended to the stream's last event.  An ``E``
  whose ``B`` a full log evicted closes nothing and is skipped.  The
  stream additionally gets a synthetic *root* span over its full event
  range, carrying the stream's ``root_span`` id.

The result exports as Chrome trace-event JSON — the ``traceEvents``
array format both ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ load directly: one named process lane for
the stream (``M`` metadata events) and ``X`` complete events for spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObsReportError


@dataclass
class Timeline:
    """The clock-aligned view of one traced run."""

    run_id: str = ""
    #: epoch seconds of timeline zero (the stream's first event)
    t0_epoch: float = 0.0
    #: the stream's lane metadata: worker, pid, root_span, parent_span, ...
    streams: list[dict] = field(default_factory=list)
    #: reconstructed spans: name/span/parent/stream/t0_s/t1_s/...
    spans: list[dict] = field(default_factory=list)
    #: events dropped to the stream's capacity limit
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
    """Lay a traced run's event stream out as one :class:`Timeline`.

    ``source`` may be a :class:`~repro.obs.report.RunReport`, its
    ``to_dict`` payload, or a raw trace payload
    (:meth:`~repro.obs.context.TraceLog.payload`).  Raises
    :class:`~repro.errors.ObsReportError` when there is no trace.
    """
    stream = _trace_of(source)
    events = stream.get("events", ())
    worker = str(stream.get("worker", "stream0"))

    def aligned(t: float) -> float:
        return float(stream.get("epoch0", 0.0)) + (
            t - float(stream.get("perf0", 0.0))
        )

    t0_epoch = aligned(events[0]["t"]) if events else 0.0
    times = [round(aligned(e["t"]) - t0_epoch, 9) for e in events]
    t_lo = min(times) if times else 0.0
    t_hi = max(times) if times else 0.0
    timeline = Timeline(
        run_id=str(stream.get("run_id", "")),
        t0_epoch=t0_epoch,
        streams=[{
            "stream": 0,
            "worker": worker,
            "pid": int(stream.get("pid", 0)),
            "root_span": str(stream.get("root_span", "")),
            "parent_span": str(stream.get("parent_span", "")),
            "t0_s": t_lo,
            "t1_s": t_hi,
            "n_events": len(events),
        }],
        n_dropped=int(stream.get("n_dropped", 0)),
    )

    # reconstruct B/E spans
    spans: list[dict] = []
    open_spans: dict[str, dict] = {}
    for e, t in zip(events, times):
        ev = e["ev"]
        if ev == "B":
            node = {
                "name": e["name"],
                "span": e.get("span", ""),
                "parent": e.get("parent", ""),
                "stream": 0,
                "worker": worker,
                "t0_s": t,
                "t1_s": t,
            }
            open_spans[node["span"]] = node
        elif ev == "E":
            node = open_spans.pop(e.get("span", ""), None)
            if node is not None:
                node["t1_s"] = t
                if e.get("error"):
                    node["error"] = e["error"]
                spans.append(node)
    # spans the stream never closed (a crash), in the order they opened
    for node in open_spans.values():
        node["t1_s"] = t_hi
        node["unclosed"] = True
        spans.append(node)

    # synthetic root span over the stream's full event range
    spans.append({
        "name": worker,
        "span": str(stream.get("root_span", "")),
        "parent": str(stream.get("parent_span", "")),
        "stream": 0,
        "worker": worker,
        "t0_s": t_lo,
        "t1_s": t_hi,
        "root": True,
    })
    spans.sort(key=lambda s: s["t0_s"])
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
    chrome://tracing loaders require with sane types.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("X", "M", "i", "B", "E"):
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
    return problems


def write_chrome_trace(timeline: Timeline, path: str | Path) -> Path:
    """Export the timeline to ``path`` as Chrome trace-event JSON."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(timeline)) + "\n")
    return path


def render_summary(timeline: Timeline) -> str:
    """A terminal one-glance summary of the timeline."""
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
