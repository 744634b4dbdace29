"""Satellite: the time-series sampler under multiprocess workers.

When the parent runs a sampler, the trace wire carries the sampling
period to every pool worker; each worker samples its own
process and its ring rides back with the task snapshot, landing in the
parent report under ``timeseries["workers"]``.  Counter *deltas* are
the survival property: a worker that dies mid-task loses its ring, but
the re-executed task contributes its deltas exactly once, so parent
totals stay exact.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro import obs
from repro.obs import Observer, Sampler, TraceContext
from repro.obs.report import RunReport
from repro.util.pool import map_tasks


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def sampled_observer():
    """A traced observer with a live parent sampler (slow period: the
    wire carries the period, workers force a final sample on flush)."""
    observer = obs.enable(TraceContext.root())
    sampler = Sampler(observer, period_s=30.0).start()
    observer.sampler = sampler
    yield observer
    sampler.stop()


def _sampled_task(shared, i):
    obs.add("task.ran", 1)
    return shared + i


def _tasks(n=6):
    return {f"t{i}": functools.partial(_sampled_task, i=i) for i in range(n)}


def _worker_rings(observer, command=("test",)):
    report = observer.report(
        command=list(command), timeseries=observer.sampler.flush()
    )
    return report, report.timeseries.get("workers", [])


class TestWorkerRingsMergeIntoParentReport:
    def test_fork_workers_ship_rings_with_counter_deltas(
        self, sampled_observer
    ):
        assert map_tasks(_tasks(), 10, workers=3) == \
            {f"t{i}": 10 + i for i in range(6)}
        report, rings = _worker_rings(sampled_observer)
        assert rings, "worker sampler rings must reach the parent report"
        for ring in rings:
            assert ring["samples"], "flush takes at least one sample"
            for sample in ring["samples"]:
                assert sample["rss_bytes"] >= 0
                assert "counter_deltas" in sample
        # each task ran under a fresh worker observer: its final sample
        # carries exactly that task's counter delta, so the rings sum
        # to the parent's exact total
        shipped = sum(
            s["counter_deltas"].get("task.ran", 0)
            for ring in rings for s in ring["samples"]
        )
        assert shipped == report.counters["task.ran"] == 6

    def test_rings_survive_report_round_trip(self, sampled_observer):
        map_tasks(_tasks(2), 1, workers=2)
        report, rings = _worker_rings(sampled_observer)
        clone = RunReport.from_dict(report.to_dict())
        assert clone.version == 3
        assert clone.timeseries["workers"] == rings

    def test_untraced_run_ships_no_worker_rings(self):
        obs.enable()  # no context, no sampler: v2-era behavior
        map_tasks(_tasks(2), 1, workers=2)
        report = obs.current().report(command=["x"])
        assert "workers" not in report.timeseries


class TestDeltasSurviveWorkerDeath:
    def test_crashed_worker_counts_exactly_once(
        self, sampled_observer, tmp_path
    ):
        flag = tmp_path / "crashed-once"

        def make(i):
            def task(shared, i=i):
                if i == 3 and not flag.exists():
                    flag.write_text("boom")
                    os._exit(3)
                obs.add("task.done", 1)
                return i

            return task

        tasks = {f"t{i}": make(i) for i in range(6)}
        result = map_tasks(tasks, 1, workers=2)
        assert result == {f"t{i}": i for i in range(6)}
        report, rings = _worker_rings(sampled_observer)
        # the poison execution died before snapshotting: its increments
        # are gone, the requeued execution's arrived — exactly once each
        assert report.counters["task.done"] == 6
        shipped = sum(
            s["counter_deltas"].get("task.done", 0)
            for ring in rings for s in ring["samples"]
        )
        assert shipped == 6
        assert report.counters["pool.requeue"] >= 1
