"""Cross-process trace-context propagation (obs v3, tentpole).

Pinned promises: a ``TraceContext`` handed off through the
work-stealing pool produces worker event streams whose causal parents
resolve into the dispatching process's stream; scheduler activity
(steals, requeues) reaches the trace log with worker ids; and the
parent's observer survives the parent-side crash recovery paths instead
of being clobbered by a fresh one.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.obs import Observer, TraceContext, TraceLog
from repro.util.pool import map_tasks


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


def _all_streams(payload: dict) -> list[dict]:
    out = [payload]
    for child in payload.get("children", ()):
        out.extend(_all_streams(child))
    return out


class TestTraceContext:
    def test_root_is_self_calibrated(self):
        ctx = TraceContext.root()
        assert ctx.run_id and ctx.parent_span_id == ""
        assert ctx.worker == "main"
        assert ctx.epoch0 > 0 and ctx.perf0 > 0

    def test_handoff_adopt_links_parent_and_run(self):
        parent = TraceContext.root()
        wire = parent.handoff("abcd:7", "abcd:9")
        child = TraceContext.adopt(wire, worker="w1")
        assert child.run_id == parent.run_id
        assert child.parent_span_id == "abcd:7"
        assert child.worker == "w1"
        assert child.span_id != parent.span_id

    def test_span_ids_unique_across_streams(self):
        # two logs in the same OS process must never collide (pool
        # workers reuse a process for many tasks)
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
        assert "trace" not in observer.snapshot()


class TestPoolPropagation:
    def _run(self):
        def make(i):
            def task(shared, i=i):
                obs.add("task.ran", 1)
                return shared + i

            return task

        tasks = {f"t{i}": make(i) for i in range(6)}
        observer = obs.enable(TraceContext.root())
        result = map_tasks(tasks, 10, workers=3)
        assert result == {f"t{i}": 10 + i for i in range(6)}
        return observer

    def test_fork_workers_chain_to_the_parent_stream(self):
        observer = self._run()
        trace = observer.trace_payload()
        streams = _all_streams(trace)
        assert len(streams) >= 2  # main + at least one worker
        span_ids = {trace["root_span"]}
        span_ids |= {
            e["span"] for e in trace["events"] if e["ev"] == "B"
        }
        for worker in streams[1:]:
            assert worker["run_id"] == trace["run_id"]
            assert worker["parent_span"] in span_ids
            kinds = [e["ev"] for e in worker["events"]]
            assert "task_start" in kinds and "task_end" in kinds

    def test_steal_scheduler_streams_carry_worker_labels(self):
        observer = self._run()
        streams = _all_streams(observer.trace_payload())
        labels = {s["worker"] for s in streams[1:]}
        assert labels and all(w.startswith("w") for w in labels)

    def test_dispatch_and_merge_keys_pair_across_the_boundary(self):
        observer = self._run()
        trace = observer.trace_payload()
        parent_keys = {
            e["key"] for e in trace["events"] if e["ev"] == "dispatch"
        }
        start_keys = set()
        for worker in _all_streams(trace)[1:]:
            start_keys |= {
                e["key"] for e in worker["events"]
                if e["ev"] == "task_start"
            }
        assert parent_keys == start_keys
        merge_keys = {
            e["key"] for e in trace["events"] if e["ev"] == "merge"
        }
        assert merge_keys == parent_keys

    def test_untraced_observed_run_ships_no_trace(self):
        def task(shared):
            return shared

        obs.enable()  # no context: v2-era behavior
        map_tasks({"a": task, "b": task}, 1, workers=2)
        assert obs.current().trace_payload() == {}


class TestSchedulerEvents:
    def test_steals_and_requeues_land_in_the_trace_log(self, tmp_path):
        # one slow task forces the other worker to steal; the poison
        # task crashes its worker once, forcing a requeue
        flag = tmp_path / "crashed-once"

        def make(i):
            def task(shared, i=i):
                if i == 4 and not flag.exists():
                    flag.write_text("boom")
                    os._exit(3)
                if i == 0:
                    import time

                    time.sleep(0.3)
                return i

            return task

        tasks = {f"t{i}": make(i) for i in range(6)}
        observer = obs.enable(TraceContext.root())
        result = map_tasks(tasks, 1, workers=2)
        assert result == {f"t{i}": i for i in range(6)}

        requeues = [e for e in observer.tracelog.events if e["ev"] == "requeue"]
        assert requeues, "worker crash must reach the parent's trace log"
        assert any(e.get("worker") is not None for e in requeues)
        # a thief records its steal in its own stream, labelled w<thief>
        for stream in _all_streams(observer.trace_payload())[1:]:
            for e in stream["events"]:
                if e["ev"] == "steal":  # timing-dependent; ids when present
                    assert stream["worker"] != f"w{e['victim']}"


class TestParentSideRecovery:
    def test_parent_execution_does_not_clobber_the_observer(self):
        # fresh=False runs a task under the live parent observer (the
        # requeue-cap and all-dead paths) instead of replacing it
        from repro.util.sched import _run_one

        observer = obs.enable(TraceContext.root())
        observer.add("pre.existing", 7)

        def task(shared):
            obs.add("task.counter", 1)
            return shared * 2

        idx, value, snapshot, dur, exc = _run_one(
            ["only"], {"only": task}, 21, 0, True, fresh=False
        )
        assert (value, exc) == (42, None)
        assert snapshot is None  # nothing to double-merge
        assert obs.current() is observer
        assert observer.counters["pre.existing"] == 7
        assert observer.counters["task.counter"] == 1

    def test_all_workers_dead_keeps_the_parent_observer(self, tmp_path):
        crashes = tmp_path / "crashes"
        crashes.mkdir()

        def make(i):
            def task(shared, i=i):
                if i == 0 and len(list(crashes.iterdir())) < 2:
                    (crashes / str(os.getpid())).write_text("x")
                    os._exit(9)
                return i

            return task

        tasks = {f"t{i}": make(i) for i in range(5)}
        observer = obs.enable(TraceContext.root())
        result = map_tasks(tasks, 2, workers=2)
        assert result == {f"t{i}": i for i in range(5)}
        assert obs.current() is observer


class TestSnapshotMergeTrace:
    def test_worker_trace_nests_as_a_child(self):
        parent = obs.enable(TraceContext.root())
        wire = parent.tracelog.context.handoff(
            parent.tracelog.current_span(), parent.tracelog.new_span_id()
        )
        worker = Observer(TraceContext.adopt(wire, worker="wX"))
        with worker.span("task"):
            worker.add("n", 1)
        parent.merge_snapshot(worker.snapshot())
        children = parent.trace_payload()["children"]
        assert len(children) == 1
        assert children[0]["worker"] == "wX"
        assert children[0]["parent_span"] == parent.tracelog.context.span_id

    def test_merge_into_untraced_parent_drops_trace_quietly(self):
        parent = obs.enable()  # no tracelog
        worker = Observer(TraceContext.root(worker="w0"))
        with worker.span("task"):
            pass
        parent.merge_snapshot(worker.snapshot())  # must not raise
        assert parent.trace_payload() == {}
