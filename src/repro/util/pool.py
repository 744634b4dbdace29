"""Fork-based fan-out over one shared in-memory object.

The characterization, the figure renderer and the cache sweeps
(:mod:`repro.caching.sweeps`) all fan independent tasks out the same
way: deterministic per-task functions, results reassembled in task
order, and a serial path with identical output whenever the pool cannot
help.  Workload generation does not fan out; it runs in one process.

These tasks share a multi-megabyte :class:`~repro.trace.frame.TraceFrame`
or chunked source, which must never be pickled per task.
The pool therefore forks: the shared state is parked in a module global
before the workers start, so they inherit it copy-on-write and only task
*indices* cross a pipe; the global is dropped as soon as the batch
drains so it cannot pin the arrays afterwards.  The workers are the
work-stealing scheduler of :mod:`repro.util.sched`.  On platforms
without ``fork`` the tasks run serially in-process.

Failure and observability semantics: a task exception in a worker is
re-raised in the parent as :class:`~repro.errors.PoolTaskError` naming
the task and its submission index (chaining the original exception),
rather than surfacing as a bare remote traceback.  When the
:mod:`repro.obs` layer is enabled, each worker collects its own span
and counter deltas and ships them back with its result, so a parallel
run's report matches a serial run's; the pool also records its own
fan-out counters (``pool.*``).
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections.abc import Callable, Mapping
from typing import Any

from repro import obs

log = logging.getLogger("repro.util.pool")

#: state inherited by forked workers: (task mapping, shared object)
_SHARED: tuple[Mapping[str, Callable[[Any], Any]], Any] | None = None


def fork_available() -> bool:
    """True when the platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def _record_task(name: str, duration_s: float) -> None:
    """Fold one task's duration into the pool's own observations."""
    obs.hist("pool.task_seconds", duration_s)
    observer = obs.current()
    if duration_s > observer.gauges.get("pool.slowest_task_s", -1.0):
        observer.gauge("pool.slowest_task_s", duration_s)
        observer.note("pool.slowest_task", name)


def _run_serial(
    tasks: Mapping[str, Callable[[Any], Any]], obj: Any, names: list[str]
) -> dict[str, Any]:
    obs.add("pool.serial_batches")
    if not obs.enabled():
        return {name: tasks[name](obj) for name in names}
    results: dict[str, Any] = {}
    for name in names:
        t0 = time.perf_counter()
        results[name] = tasks[name](obj)
        _record_task(name, time.perf_counter() - t0)
    return results


def map_tasks(
    tasks: Mapping[str, Callable[[Any], Any]],
    obj: Any,
    workers: int | None,
) -> dict[str, Any]:
    """Run every ``tasks[name](obj)`` and return ``{name: result}``.

    With ``workers`` of ``None``/0/1, a single task, or a platform that
    cannot fork, the tasks run serially in-process.  Otherwise they fan
    out over the work-stealing pool (:mod:`repro.util.sched`), ``obj``
    inherited copy-on-write: idle workers take queued tasks from the
    busiest worker's tail, and a worker that crashes or fails to start
    has its tasks finished by the others (or by the parent), with
    identical results because every task is deterministic.  A task that
    *raises* in a worker surfaces as :class:`~repro.errors.PoolTaskError`
    with the task name and submission index, the worker exception
    chained.
    """
    names = list(tasks)
    obs.add("pool.batches")
    obs.add("pool.tasks", len(names))
    if workers is None or workers <= 1 or len(names) <= 1 or not fork_available():
        if workers is not None and workers > 1:
            log.info(
                "running %d task(s) serially: %s", len(names),
                "a single task cannot fan out" if len(names) <= 1
                else "the platform cannot fork",
            )
        return _run_serial(tasks, obj, names)

    from repro.util import sched

    return sched.run_stealing(tasks, obj, min(workers, len(names)))
