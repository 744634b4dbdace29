"""The work-stealing worker pool behind :func:`repro.util.pool.map_tasks`.

Fanned tasks are not uniform — one FIFO replay line can run 10x longer
than an LRU stack-distance line, and figures and chunk ranges differ in
cost — so a static split would leave workers idle behind the straggler.  This pool
keeps a static split's submission-order locality but lets idle workers
help:

- **Chunked task queues.**  The task list is split into per-worker
  contiguous chunks living in one shared index array; each worker pops
  from the *head* of its own chunk, so the common case is lock-cheap.
- **Stealing from the tail.**  A worker whose chunk drains picks the
  victim with the most work left and takes one task from the victim's
  *tail* — the classic deque discipline: owner and thief touch opposite
  ends, so contention stays rare.
- **Blocking when idle.**  Chunks only shrink, so a worker with nothing
  to pop or steal blocks on the overflow queue, the only place new work
  can arrive; the parent ends each batch with one sentinel per started
  worker on that queue.
- **Crash requeue.**  A worker that dies mid-queue (OOM-killed,
  segfaulted C extension, ``os._exit`` in a task) or never starts has
  its unfinished chunk and in-flight task re-enqueued for the
  survivors; if every worker is gone the parent finishes the remainder
  serially.  A task that repeatedly kills its executor is eventually run
  in the parent so a genuine crash still surfaces instead of looping.
  A result presumed lost in a crash may still arrive after its task was
  requeued; tasks are deterministic functions, so whichever copy
  finishes first wins and the duplicate result is dropped.

Determinism: results and worker obs snapshots are reassembled in task
submission order regardless of which worker ran what or how often, so a
stolen or requeued run is byte-identical to a serial one.  Scheduling
activity is observable through the ``pool.steal`` / ``pool.requeue``
counters and, on a traced run, the ``dispatch`` / ``steal`` /
``requeue`` / ``merge`` events of the trace log.

The pool requires the ``fork`` start method: workers inherit the task
mapping and shared object copy-on-write.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_mod
import time
from collections.abc import Callable, Mapping
from typing import Any

from repro import obs
from repro.errors import PoolTaskError
from repro.obs.context import TraceContext
from repro.util import pool as pool_mod

log = logging.getLogger("repro.util.sched")

#: how long the parent waits on the result queue per poll
_POLL_S = 0.02

#: how long to wait for a (possibly dead) victim's queue lock
_LOCK_TIMEOUT_S = 0.2

#: how many times a task may be requeued after killing its worker
#: before the parent runs it in-process and lets the failure surface
_MAX_REQUEUES = 2


def _make_wire() -> dict | None:
    """One fan-out's trace handoff (and worker sampling period), if traced."""
    observer = obs.current()
    tracelog = observer.tracelog
    if tracelog is None:
        return None
    batch = tracelog.new_span_id()
    wire = tracelog.context.handoff(tracelog.current_span(), batch)
    sampler = observer.sampler
    if sampler is not None:
        wire["sample_period"] = sampler.period_s
    return wire


def _adopt_wire(wire: dict, name: str, worker: str, victim: int | None):
    """Install a fresh traced observer for one worker task and record
    its ``task_start`` (preceded by a ``steal`` event when the task was
    taken from another worker's queue); returns (observer, edge key)."""
    observer = obs.enable(TraceContext.adopt(wire, worker=worker))
    key = f"{wire['batch']}/{name}"
    if victim is not None:
        observer.tracelog.record("steal", name, key=key, victim=victim)
    observer.tracelog.record("task_start", name, key=key)
    period = wire.get("sample_period")
    if period:
        from repro.obs.sampler import Sampler

        observer.sampler = Sampler(observer, period_s=period).start()
    return observer, key


def _pop_own(worker: int, bounds, locks, idx_arr) -> int | None:
    """Take the next task index from a worker's own chunk head."""
    lock = locks[worker]
    if not lock.acquire(timeout=_LOCK_TIMEOUT_S):  # pragma: no cover - contention
        return None
    try:
        head, tail = bounds[2 * worker], bounds[2 * worker + 1]
        if head >= tail:
            return None
        bounds[2 * worker] = head + 1
        return idx_arr[head]
    finally:
        lock.release()


def _steal(
    worker: int, n_workers: int, bounds, locks, idx_arr
) -> tuple[int, int] | None:
    """Take one task from the tail of the fullest other queue.

    Returns ``(task index, victim worker)`` so the thief can attribute
    the steal in its trace stream.
    """
    victims = sorted(
        (v for v in range(n_workers) if v != worker),
        key=lambda v: bounds[2 * v + 1] - bounds[2 * v],
        reverse=True,
    )
    for victim in victims:
        if bounds[2 * victim + 1] - bounds[2 * victim] <= 0:
            break  # sorted: nobody further has work either
        lock = locks[victim]
        if not lock.acquire(timeout=_LOCK_TIMEOUT_S):
            continue  # victim (or its lock holder) is wedged; try another
        try:
            head, tail = bounds[2 * victim], bounds[2 * victim + 1]
            if head >= tail:
                continue
            bounds[2 * victim + 1] = tail - 1
            return idx_arr[tail - 1], victim
        finally:
            lock.release()
    return None


def _run_one(names, tasks, obj, idx: int, obs_on: bool,
             wire: dict | None = None, worker: int | None = None,
             victim: int | None = None, fresh: bool = True):
    """Execute one task, capturing its obs deltas in a fresh observer.

    ``fresh=False`` is the *parent-side* mode (requeue cap exceeded, all
    workers dead): the task runs under the parent's live observer instead
    of replacing it with a fresh one, and returns ``snapshot=None`` so
    nothing is double-merged.
    """
    name = names[idx]
    if obs_on:
        if not fresh:
            t0 = time.perf_counter()
            try:
                value = tasks[name](obj)
            except Exception as exc:
                return idx, None, None, 0.0, exc
            dur = time.perf_counter() - t0
            pool_mod._record_task(name, dur)
            return idx, value, None, dur, None
        if wire is not None:
            observer, key = _adopt_wire(wire, name, f"w{worker}", victim)
        else:
            observer, key = obs.enable(), None
        t0 = time.perf_counter()
        try:
            value = tasks[name](obj)
        except Exception as exc:
            return idx, None, None, 0.0, exc
        dur = time.perf_counter() - t0
        if key is not None:
            observer.tracelog.record("task_end", name, key=key,
                                     dur_s=round(dur, 6))
        return idx, value, observer.snapshot(), dur, None
    try:
        value = tasks[name](obj)
    except Exception as exc:
        return idx, None, None, 0.0, exc
    return idx, value, None, 0.0, None


def _steal_worker(
    worker: int,
    n_workers: int,
    idx_arr,
    bounds,
    locks,
    current,
    extra,
    results,
    done,
    obs_on: bool,
    wire: dict | None = None,
) -> None:
    """Worker main loop: drain own chunk, then steal, then block on the
    overflow queue until a requeued task or the batch's sentinel."""
    assert pool_mod._SHARED is not None, "steal worker forked without state"
    tasks, obj = pool_mod._SHARED
    names = list(tasks)
    while not done.is_set():
        idx = _pop_own(worker, bounds, locks, idx_arr)
        victim: int | None = None
        if idx is None:
            stolen = _steal(worker, n_workers, bounds, locks, idx_arr)
            if stolen is not None:
                idx, victim = stolen
        if idx is None:
            # chunks only shrink: new work can arrive only on this queue
            idx = extra.get()
            if idx is None:
                break
        current[worker] = idx
        idx, value, snapshot, dur, exc = _run_one(
            names, tasks, obj, idx, obs_on,
            wire=wire, worker=worker, victim=victim,
        )
        current[worker] = -1
        if exc is not None:
            import pickle

            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(repr(exc))
        results.put((victim, idx, value, snapshot, dur, exc))
    # the batch is over and the parent reads no more results: exit
    # without waiting to flush a late (duplicate or abandoned) one
    results.cancel_join_thread()


def run_stealing(
    tasks: Mapping[str, Callable[[Any], Any]],
    obj: Any,
    workers: int,
) -> dict[str, Any]:
    """Run ``tasks[name](obj)`` for every task over a work-stealing pool.

    Same contract as :func:`repro.util.pool.map_tasks`: returns
    ``{name: result}`` with results (and worker obs snapshots) folded in
    submission order, raises :class:`~repro.errors.PoolTaskError` naming
    a task that raised, and runs serially with one worker, one task, or
    no ``fork``.
    """
    names = list(tasks)
    n = len(names)
    n_workers = min(workers, n)
    if n_workers <= 1 or not pool_mod.fork_available():
        reason = (
            "single worker/task" if n_workers <= 1 else "fork unavailable"
        )
        log.info("steal scheduler running %d task(s) serially (%s)", n, reason)
        return pool_mod._run_serial(tasks, obj, names)

    ctx = multiprocessing.get_context("fork")
    idx_arr = ctx.Array("q", n, lock=False)
    bounds = ctx.Array("q", 2 * n_workers, lock=False)
    locks = [ctx.Lock() for _ in range(n_workers)]
    current = ctx.Array("q", n_workers, lock=False)
    extra = ctx.Queue()
    results_q = ctx.Queue()
    done = ctx.Event()

    # contiguous chunked split, in submission order
    for i in range(n):
        idx_arr[i] = i
    for w in range(n_workers):
        bounds[2 * w] = w * n // n_workers
        bounds[2 * w + 1] = (w + 1) * n // n_workers
        current[w] = -1

    obs_on = obs.enabled()
    wire = _make_wire()
    if wire is not None:
        for i, name in enumerate(names):
            owner = next(
                w for w in range(n_workers)
                if bounds[2 * w] <= i < bounds[2 * w + 1]
            )
            obs.event("dispatch", name, key=f"{wire['batch']}/{name}",
                      index=i, mode="steal", worker=owner)
    pool_mod._SHARED = (tasks, obj)
    procs = [
        ctx.Process(
            target=_steal_worker,
            args=(w, n_workers, idx_arr, bounds, locks, current, extra,
                  results_q, done, obs_on, wire),
            daemon=True,
        )
        for w in range(n_workers)
    ]
    started = []
    try:
        for w, p in enumerate(procs):
            try:
                p.start()
            except OSError as exc:
                # never started: _collect finds it dead and hands its
                # chunk to the others (or finishes serially)
                log.warning("pool worker %d failed to start (%s)", w, exc)
            else:
                started.append(p)
        outcome = _collect(
            names, tasks, obj, n_workers, procs, idx_arr, bounds, locks,
            current, extra, results_q, obs_on, wire,
        )
    finally:
        done.set()
        for _ in started:
            extra.put(None)
        for p in started:
            p.join(timeout=2.0)
        for p in started:
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
                p.join(timeout=1.0)
        extra.cancel_join_thread()
        results_q.cancel_join_thread()
        pool_mod._SHARED = None

    values, snapshots, durations, steals, requeues = outcome
    obs.add("pool.steal_batches")
    obs.add("pool.worker_processes", len(started))
    if steals:
        obs.add("pool.steal", steals)
    if requeues:
        obs.add("pool.requeue", requeues)
    # fold worker observations in submission order (deterministic)
    for idx, name in enumerate(names):
        snapshot = snapshots.get(idx)
        if snapshot is not None:
            obs.current().merge_snapshot(snapshot)
            pool_mod._record_task(name, durations[idx])
            if wire is not None:
                obs.event("merge", name, key=f"{wire['batch']}/{name}")
    return {name: values[idx] for idx, name in enumerate(names)}


def _drain_dead_worker(worker, bounds, locks, idx_arr, current) -> list[int]:
    """Recover every task index a dead worker still owned."""
    recovered: list[int] = []
    in_flight = current[worker]
    if in_flight >= 0:
        recovered.append(in_flight)
        current[worker] = -1
    lock = locks[worker]
    locked = lock.acquire(timeout=_LOCK_TIMEOUT_S)
    try:
        # if the worker died holding its own lock, reading without it is
        # safe: the owner is gone and thieves give up after a timeout
        head, tail = bounds[2 * worker], bounds[2 * worker + 1]
        recovered.extend(idx_arr[head:tail])
        bounds[2 * worker] = tail
    finally:
        if locked:
            lock.release()
    return recovered


def _collect(
    names, tasks, obj, n_workers, procs, idx_arr, bounds, locks, current,
    extra, results_q, obs_on, wire=None,
):
    """Parent loop: gather results, police crashed workers."""
    n = len(names)
    values: dict[int, Any] = {}
    snapshots: dict[int, dict] = {}
    durations: dict[int, float] = {}
    requeue_counts: dict[int, int] = {}
    steals = requeues = 0
    dead: set[int] = set()

    def _requeue(idx: int, why: str, worker: int | None = None) -> None:
        nonlocal requeues
        requeue_counts[idx] = requeue_counts.get(idx, 0) + 1
        requeues += 1
        if wire is not None:
            obs.event("requeue", names[idx],
                      key=f"{wire['batch']}/{names[idx]}",
                      index=idx, reason=why, worker=worker)
        if requeue_counts[idx] > _MAX_REQUEUES:
            log.warning(
                "task %r requeued %d times; running it in the parent",
                names[idx], requeue_counts[idx] - 1,
            )
            _, value, snapshot, dur, exc = _run_one(
                names, tasks, obj, idx, obs_on, fresh=False
            )
            if exc is not None:
                raise PoolTaskError(
                    f"pool task {names[idx]!r} (#{idx} of {n}) failed after "
                    f"{why}: {exc}",
                    task=names[idx],
                    index=idx,
                ) from exc
            values[idx] = value
            if snapshot is not None:
                snapshots[idx] = snapshot
                durations[idx] = dur
        else:
            log.info("requeueing task %r after %s", names[idx], why)
            extra.put(idx)

    while len(values) < n:
        try:
            victim, idx, value, snapshot, dur, exc = results_q.get(
                timeout=_POLL_S
            )
        except queue_mod.Empty:
            pass
        else:
            if exc is not None:
                raise PoolTaskError(
                    f"pool task {names[idx]!r} (#{idx} of {n}) failed in a "
                    f"worker: {exc}",
                    task=names[idx],
                    index=idx,
                ) from exc
            if idx not in values:  # first finisher wins on duplicates
                values[idx] = value
                if snapshot is not None:
                    snapshots[idx] = snapshot
                    durations[idx] = dur
                if victim is not None:
                    steals += 1
            continue

        # no result this poll: check for dead workers ...
        newly_dead = False
        recovered: set[int] = set()
        for w, p in enumerate(procs):
            if w in dead or p.is_alive():
                continue
            dead.add(w)
            newly_dead = True
            log.warning(
                "pool worker %d died (exit code %s); requeueing its tasks",
                w, p.exitcode,
            )
            for idx in _drain_dead_worker(w, bounds, locks, idx_arr, current):
                if idx not in values:
                    recovered.add(idx)
                    _requeue(idx, f"worker {w} crash", worker=w)
        if newly_dead and len(dead) < len(procs):
            # a hard-killed worker (os._exit, SIGKILL) takes its queue
            # feeder thread with it, so results it finished but never
            # flushed are gone for good.  Any missing index that no live
            # worker owns must be presumed lost and re-dispatched;
            # duplicates are dropped by first-result-wins above.
            owned: set[int] = set(recovered)
            for w in range(n_workers):
                if w in dead:
                    continue
                if current[w] >= 0:
                    owned.add(current[w])
                owned.update(idx_arr[bounds[2 * w]:bounds[2 * w + 1]])
            for idx in range(n):
                if idx not in values and idx not in owned:
                    _requeue(idx, "result lost in a worker crash")
        if len(dead) == len(procs):
            # nobody left to serve the queues: finish serially, in order
            log.warning("all pool workers died; finishing serially in parent")
            for idx in range(n):
                if idx in values:
                    continue
                _, value, snapshot, dur, exc = _run_one(
                    names, tasks, obj, idx, obs_on, fresh=False
                )
                if exc is not None:
                    raise PoolTaskError(
                        f"pool task {names[idx]!r} (#{idx} of {n}) failed "
                        f"in the parent after its workers died: {exc}",
                        task=names[idx],
                        index=idx,
                    ) from exc
                values[idx] = value
                if snapshot is not None:
                    snapshots[idx] = snapshot
                    durations[idx] = dur
            break

    return values, snapshots, durations, steals, requeues
