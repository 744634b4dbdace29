"""The trace context and its event log (obs v3).

Pinned promises: a root context carries its own clock calibration; span
ids never collide across logs; the log nests span begins and ends,
names the exception a span died of, and evicts its oldest events once
full; and an observer enabled without a context records no trace.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import TraceContext, TraceLog


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


class TestTraceContext:
    def test_root_is_self_calibrated(self):
        ctx = TraceContext.root()
        assert ctx.run_id and ctx.parent_span_id == ""
        assert ctx.worker == "main"
        assert ctx.epoch0 > 0 and ctx.perf0 > 0

    def test_span_ids_unique_across_streams(self):
        # two logs in the same OS process must never collide
        a = TraceLog(TraceContext.root())
        b = TraceLog(TraceContext.root())
        ids = {a.new_span_id() for _ in range(50)}
        ids |= {b.new_span_id() for _ in range(50)}
        assert len(ids) == 100


class TestTraceLog:
    def test_begin_end_nest_and_record(self):
        log = TraceLog(TraceContext.root())
        outer = log.begin_span("outer")
        inner = log.begin_span("inner")
        assert log.current_span() == inner
        log.end_span("inner")
        assert log.current_span() == outer
        log.end_span("outer")
        evs = [(e["ev"], e["name"]) for e in log.events]
        assert evs == [("B", "outer"), ("B", "inner"),
                       ("E", "inner"), ("E", "outer")]
        assert log.events[1]["parent"] == outer

    def test_capacity_overflow_counts_instead_of_growing(self):
        log = TraceLog(TraceContext.root(), capacity=3)
        for i in range(10):
            log.record("i", f"e{i}")
        assert len(log.events) == 3
        assert log.n_dropped == 7
        assert log.payload()["n_dropped"] == 7

    def test_error_spans_carry_the_exception_name(self):
        observer = obs.enable(TraceContext.root())
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        end = [e for e in observer.tracelog.events if e["ev"] == "E"][0]
        assert end["error"] == "ValueError"

    def test_untraced_enable_keeps_tracelog_off(self):
        observer = obs.enable()
        assert observer.tracelog is None
        with obs.span("work"):
            pass
        assert observer.trace_payload() == {}
        assert observer.report().trace == {}
