"""The work-stealing pool: determinism under adversity.

:func:`repro.util.sched.run_stealing`, the pool behind
:func:`repro.util.pool.map_tasks`, promises the serial path's contract —
results folded in submission order, ``PoolTaskError`` naming a failing
task — while surviving uneven task costs, workers that die mid-queue
and workers that never start.  Every adversity scenario here must
produce results identical to the serial path.
"""

import errno
import logging
import multiprocessing.process
import os
import signal
import time

import pytest

from repro import obs
from repro.errors import PoolTaskError
from repro.util import pool as pool_mod
from repro.util.pool import fork_available, map_tasks

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="steal scheduler requires fork"
)


def _square_tasks(n):
    """n deterministic tasks: task i returns (i, obj * i)."""
    return {
        f"task{i}": (lambda shared, i=i: (i, shared * i)) for i in range(n)
    }


class TestStealMatchesStatic:
    def test_steal_identical_to_serial_and_static(self):
        tasks = _square_tasks(12)
        serial = map_tasks(tasks, 7, workers=None)
        stolen = map_tasks(tasks, 7, workers=3)
        assert stolen == serial

    def test_single_worker_falls_back_to_static(self, caplog):
        tasks = _square_tasks(4)
        with caplog.at_level(logging.INFO, logger="repro.util.sched"):
            result = map_tasks(tasks, 3, workers=1)
        # workers=1 short-circuits in map_tasks before reaching sched,
        # so drive run_stealing directly to exercise its own fallback
        from repro.util.sched import run_stealing

        with caplog.at_level(logging.INFO, logger="repro.util.sched"):
            direct = run_stealing(tasks, 3, workers=1)
        assert result == direct == map_tasks(tasks, 3, workers=None)
        assert any("running 4 task(s) serially" in r.message
                   for r in caplog.records)

    def test_serial_fallback_logs_when_fanout_impossible(self, caplog):
        # a single task cannot fan out: the pool says so at INFO level
        with caplog.at_level(logging.INFO, logger="repro.util.pool"):
            result = map_tasks({"only": lambda shared: shared + 1}, 1,
                               workers=4)
        assert result == {"only": 2}
        assert any("serially" in r.message for r in caplog.records)


class TestStragglers:
    def test_uneven_tasks_steal_and_stay_identical(self):
        # worker 0's chunk starts with a straggler; its queued tail is
        # stolen by workers whose own chunks drain instantly
        def make(i):
            def task(shared, i=i):
                if i == 0:
                    time.sleep(0.6)
                return (i, shared + i)

            return task

        tasks = {f"t{i}": make(i) for i in range(8)}
        serial = map_tasks(tasks, 100, workers=None)

        ob = obs.enable()
        stolen = map_tasks(tasks, 100, workers=4)
        snap = ob.snapshot()
        obs.disable()

        assert stolen == serial
        counters = snap["counters"]
        assert counters.get("pool.steal_batches", 0) >= 1
        assert counters.get("pool.steal", 0) >= 1


class TestWorkerCrash:
    def test_crash_mid_queue_requeues_and_stays_identical(self, tmp_path):
        # the poison task kills its worker (os._exit skips all cleanup)
        # on first contact, then behaves on the requeued attempt; the
        # final results must match the serial run exactly
        flag = tmp_path / "crashed-once"

        def make(i):
            def task(shared, i=i):
                if i == 2 and not flag.exists():
                    flag.write_text("boom")
                    os._exit(3)
                return (i, shared - i)

            return task

        tasks = {f"t{i}": make(i) for i in range(6)}
        # arm the flag for the serial reference so the poison task never
        # fires in the parent (os._exit would take pytest down with it)
        flag.write_text("armed")
        serial = map_tasks(tasks, 50, workers=None)
        flag.unlink()

        ob = obs.enable()
        result = map_tasks(tasks, 50, workers=2)
        snap = ob.snapshot()
        obs.disable()

        assert result == serial
        assert snap["counters"].get("pool.requeue", 0) >= 1

    def test_all_workers_dead_parent_finishes_serially(self, tmp_path):
        # every worker that touches task 0 dies until the requeue cap,
        # after which the parent runs the remainder in-process — results
        # still identical to serial
        crashes = tmp_path / "crashes"
        crashes.mkdir()

        def make(i):
            def task(shared, i=i):
                if i == 0 and len(list(crashes.iterdir())) < 2:
                    (crashes / str(os.getpid())).write_text("x")
                    os._exit(9)
                return (i, shared + i * i)

            return task

        tasks = {f"t{i}": make(i) for i in range(5)}
        # pre-fill the crash ledger so the serial reference run in the
        # parent takes the well-behaved branch (the poison task must
        # only ever fire inside a worker process)
        for j in range(2):
            (crashes / f"pre{j}").write_text("x")
        serial = map_tasks(tasks, 2, workers=None)
        for p in crashes.iterdir():
            p.unlink()

        result = map_tasks(tasks, 2, workers=2)
        assert result == serial


def _on_alarm(signum, frame):
    # not TimeoutError: that is an OSError, which a failed start raises
    raise RuntimeError("the pool hung after a worker failed to start")


class TestWorkerStartFailure:
    """A worker whose ``start()`` raises (fork refused with EAGAIN) must
    neither hang the run nor leave the shared object pinned: its chunk
    goes to the workers that did start, or the parent runs the batch."""

    @pytest.mark.parametrize(
        "failing", [{0}, {1}, {0, 1, 2}], ids=["first", "second", "every"]
    )
    def test_start_failure_returns_serial_result(self, monkeypatch, failing):
        tasks = _square_tasks(9)
        serial = map_tasks(tasks, 3, workers=None)
        start = multiprocessing.process.BaseProcess.start
        calls = []

        def flaky_start(process):
            calls.append(process)
            if len(calls) - 1 in failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return start(process)

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", flaky_start
        )
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(30)
        try:
            result = map_tasks(tasks, 3, workers=3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result == serial
        assert len(calls) == 3
        assert pool_mod._SHARED is None


class TestErrorNaming:
    def test_pool_task_error_names_task_and_index(self):
        def fine(shared):
            return shared

        def boom(shared):
            raise ValueError("synthetic failure")

        tasks = {"fine0": fine, "boom1": boom, "fine2": fine}
        with pytest.raises(PoolTaskError) as info:
            map_tasks(tasks, 1, workers=2)
        assert info.value.task == "boom1"
        assert info.value.index == 1
        assert "failed in a worker" in str(info.value)
        assert "boom1" in str(info.value)

    def test_unpicklable_exception_still_surfaces(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("not today")

        def boom(shared):
            raise Unpicklable("local-only failure")

        tasks = {"ok": lambda shared: shared, "bad": boom}
        with pytest.raises(PoolTaskError) as info:
            map_tasks(tasks, 1, workers=2)
        assert info.value.task == "bad"
