"""Timeline export (obs v3): align, reconstruct, validate.

Covers the synthetic-payload contract of :mod:`repro.obs.timeline`:
clock alignment of a stream whose monotonic base is far from its epoch,
B/E span pairing, unclosed and evicted spans, and the Chrome
trace-event export and its validator.  A run records one stream, and
so does every fixture here.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ObsReportError
from repro.obs import TraceContext, TraceLog
from repro.obs.report import RunReport
from repro.obs.timeline import (
    build_timeline,
    render_summary,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


def _stream(worker, epoch0, perf0, events, *, root_span="", parent_span="",
            pid=100, n_dropped=0):
    return {
        "version": 1,
        "run_id": "run-1",
        "worker": worker,
        "pid": pid,
        "root_span": root_span,
        "parent_span": parent_span,
        "epoch0": epoch0,
        "perf0": perf0,
        "n_dropped": n_dropped,
        "events": list(events),
    }


def _synthetic_trace():
    """One run's stream: an outer span, a nested one, and an event.

    The monotonic base (perf0) is far from the epoch, so any alignment
    mistake shows up as a huge time error.
    """
    return _stream(
        "main", epoch0=1000.0, perf0=5000.0,
        events=[
            {"ev": "B", "name": "sweep", "t": 5000.1, "span": "m:1",
             "parent": "m:0"},
            {"ev": "B", "name": "load", "t": 5000.35, "span": "m:2",
             "parent": "m:1"},
            {"ev": "E", "name": "load", "t": 5000.5, "span": "m:2"},
            {"ev": "i", "name": "checkpoint", "t": 5000.6},
            {"ev": "E", "name": "sweep", "t": 5000.9, "span": "m:1"},
        ],
        root_span="m:0", pid=111,
    )


class TestBuildTimeline:
    def test_accepts_report_dict_and_raw_payload(self):
        trace = _synthetic_trace()
        report = RunReport(command=["x"], trace=trace)
        for source in (report, report.to_dict(), trace):
            timeline = build_timeline(source)
            assert timeline.run_id == "run-1"
            assert timeline.n_streams == 1

    def test_no_trace_raises(self):
        with pytest.raises(ObsReportError, match="no trace"):
            build_timeline(RunReport(command=["x"]))
        with pytest.raises(ObsReportError, match="no trace"):
            build_timeline({"version": 2, "counters": {}})

    def test_clocks_align_across_skewed_monotonic_bases(self):
        timeline = build_timeline(_synthetic_trace())
        # the first event (B at aligned epoch 1000 + 0.1) is zero
        assert timeline.t0_epoch == pytest.approx(1000.1)
        (lane,) = timeline.streams
        assert lane["t0_s"] == pytest.approx(0.0)
        assert lane["t1_s"] == pytest.approx(0.8)
        # load's B: 1000 + (5000.35 - 5000) - 1000.1 = 0.25
        load = next(s for s in timeline.spans if s["name"] == "load")
        assert load["t0_s"] == pytest.approx(0.25)
        assert load["t1_s"] == pytest.approx(0.4)

    def test_spans_reconstruct_with_parents(self):
        timeline = build_timeline(_synthetic_trace())
        named = {s["name"]: s for s in timeline.spans if not s.get("root")}
        assert named["sweep"]["span"] == "m:1"
        assert named["load"]["parent"] == "m:1"
        assert named["load"]["t1_s"] > named["load"]["t0_s"]
        # the synthetic root span is the parent of the outermost span
        (root,) = [s for s in timeline.spans if s.get("root")]
        assert (root["name"], root["span"]) == ("main", "m:0")
        assert named["sweep"]["parent"] == root["span"]
        assert timeline.unresolved_parents() == []

    def test_unclosed_span_extends_to_stream_end(self):
        trace = _stream(
            "main", epoch0=10.0, perf0=0.0,
            events=[
                {"ev": "B", "name": "hang", "t": 1.0, "span": "m:1",
                 "parent": ""},
                {"ev": "i", "name": "later", "t": 4.0},
            ],
            root_span="m:0",
        )
        timeline = build_timeline(trace)
        hang = next(s for s in timeline.spans if s["name"] == "hang")
        assert hang["unclosed"] is True
        assert hang["t1_s"] == pytest.approx(3.0)

    def test_evicted_span_begins_leave_the_rest(self):
        # a full log evicts its oldest events: "early" goes entirely and
        # "outer" keeps only its E, which closes nothing
        log = TraceLog(TraceContext.root(), capacity=3)
        log.begin_span("early")
        log.end_span("early")
        log.begin_span("outer")
        log.begin_span("inner")
        log.end_span("inner")
        log.end_span("outer")
        timeline = build_timeline(log.payload())
        names = [s["name"] for s in timeline.spans if not s.get("root")]
        assert names == ["inner"]
        assert timeline.n_dropped == 3
        assert timeline.streams[0]["n_events"] == 3

    def test_dropped_events_are_totalled(self):
        trace = _synthetic_trace()
        trace["n_dropped"] = 3
        assert build_timeline(trace).n_dropped == 3


class TestChromeTrace:
    def test_export_validates_and_round_trips_json(self, tmp_path):
        timeline = build_timeline(_synthetic_trace())
        payload = to_chrome_trace(timeline)
        assert validate_chrome_trace(payload) == []
        path = write_chrome_trace(timeline, tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_lanes_and_spans_are_present(self):
        payload = to_chrome_trace(build_timeline(_synthetic_trace()))
        events = payload["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"main (pid 111)"}
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"sweep", "load", "main"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        assert payload["otherData"]["run_id"] == "run-1"

    def test_validator_reports_problems(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents is missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 0},
            {"ph": "X", "name": "", "pid": 0, "ts": -1.0, "dur": "no"},
            # no exporter emits flow events, so they are unknown too
            {"ph": "s", "name": "flow", "pid": 0, "ts": 0.0, "id": "f1"},
        ]}
        problems = validate_chrome_trace(bad)
        assert problems == [
            "traceEvents[0]: unknown phase 'Z'",
            "traceEvents[1]: missing name",
            "traceEvents[1]: ts must be a non-negative number",
            "traceEvents[1]: dur must be a non-negative number",
            "traceEvents[2]: unknown phase 's'",
        ]

    def test_summary_mentions_streams(self):
        summary = render_summary(build_timeline(_synthetic_trace()))
        assert "1 streams" in summary
        assert "main" in summary
        assert "WARNING" not in summary
