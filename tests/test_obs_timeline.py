"""Timeline export (obs v3): merge, align, reconstruct, validate.

Covers the synthetic-payload contract of :mod:`repro.obs.timeline`:
clock alignment across skewed streams, B/E span pairing, unclosed and
evicted spans, and the Chrome trace-event export and its validator.
The synthetic trace nests a worker stream, as reports saved while
analyses still fanned out across processes do; those must still load.
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
            children=(), pid=100, n_dropped=0):
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
        "children": list(children),
    }


def _synthetic_trace():
    """Main stream dispatches one task; a worker steals and runs it.

    The two streams use wildly different monotonic bases (perf0) so any
    alignment mistake shows up as a huge time error.
    """
    worker = _stream(
        "w0", epoch0=1000.0, perf0=5000.0,
        events=[
            {"ev": "steal", "name": "t0", "t": 5000.35, "key": "b:1/t0"},
            {"ev": "task_start", "name": "t0", "t": 5000.4, "key": "b:1/t0"},
            {"ev": "B", "name": "load", "t": 5000.45,
             "span": "w:1", "parent": "w:0"},
            {"ev": "E", "name": "load", "t": 5000.5, "span": "w:1"},
            {"ev": "task_end", "name": "t0", "t": 5000.6, "key": "b:1/t0"},
        ],
        root_span="w:0", parent_span="m:1", pid=222,
    )
    main = _stream(
        "main", epoch0=1000.0, perf0=77.0,
        events=[
            {"ev": "B", "name": "fanout", "t": 77.1, "span": "m:1",
             "parent": "m:0"},
            {"ev": "dispatch", "name": "t0", "t": 77.2, "key": "b:1/t0"},
            {"ev": "merge", "name": "t0", "t": 77.8, "key": "b:1/t0"},
            {"ev": "E", "name": "fanout", "t": 77.9, "span": "m:1"},
        ],
        root_span="m:0", children=[worker], pid=111,
    )
    return main


class TestBuildTimeline:
    def test_accepts_report_dict_and_raw_payload(self):
        trace = _synthetic_trace()
        report = RunReport(command=["x"], trace=trace)
        for source in (report, report.to_dict(), trace):
            timeline = build_timeline(source)
            assert timeline.run_id == "run-1"
            assert timeline.n_streams == 2

    def test_no_trace_raises(self):
        with pytest.raises(ObsReportError, match="no trace"):
            build_timeline(RunReport(command=["x"]))
        with pytest.raises(ObsReportError, match="no trace"):
            build_timeline({"version": 2, "counters": {}})

    def test_clocks_align_across_skewed_monotonic_bases(self):
        timeline = build_timeline(_synthetic_trace())
        # earliest event (main's B at aligned epoch 1000.1) is zero
        assert timeline.t0_epoch == pytest.approx(1000.1)
        by_worker = {s["worker"]: s for s in timeline.streams}
        assert by_worker["main"]["t0_s"] == pytest.approx(0.0)
        # worker's steal: 1000 + (5000.35 - 5000) - 1000.1 = 0.25
        assert by_worker["w0"]["t0_s"] == pytest.approx(0.25)
        assert by_worker["w0"]["t1_s"] == pytest.approx(0.5)

    def test_spans_reconstruct_with_parents(self):
        timeline = build_timeline(_synthetic_trace())
        named = {s["name"]: s for s in timeline.spans if not s.get("root")}
        assert named["fanout"]["span"] == "m:1"
        assert named["load"]["parent"] == "w:0"
        assert named["load"]["t1_s"] > named["load"]["t0_s"]
        # synthetic root spans chain each stream to its dispatcher
        roots = {s["name"]: s for s in timeline.spans if s.get("root")}
        assert roots["w0"]["parent"] == "m:1"
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
        trace["children"][0]["n_dropped"] = 4
        assert build_timeline(trace).n_dropped == 7


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
        assert names == {"main (pid 111)", "w0 (pid 222)"}
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} >= {"fanout", "load", "main", "w0"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        assert payload["otherData"]["run_id"] == "run-1"

    def test_validator_reports_problems(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents is missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 0},
            {"ph": "X", "name": "", "pid": 0, "ts": -1.0, "dur": "no"},
            {"ph": "s", "name": "flow", "pid": 0, "ts": 0.0, "id": "f1"},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)
        assert any("missing name" in p for p in problems)
        assert any("ts must be" in p for p in problems)
        assert any("dur must be" in p for p in problems)
        assert any("unpaired" in p for p in problems)

    def test_summary_mentions_streams(self):
        summary = render_summary(build_timeline(_synthetic_trace()))
        assert "2 streams" in summary
        assert "main" in summary and "w0" in summary
        assert "WARNING" not in summary
