"""Workload realization.

:class:`WorkloadGenerator` turns a :class:`~repro.workload.scenarios.Scenario`
into a trace.  The generator itself is engine-agnostic: it resolves the
scenario's named :class:`~repro.workload.engines.WorkloadEngine` (the
calibrated CHARISMA planner lives here as :class:`SyntheticEngine`;
``drift`` lives in its own module) and drives it
through planning, emission, and the direct/full run paths, all in one
process.

For the ``synthetic`` engine, one walk over the plan emits every planned
operation as a time-sorted :class:`~repro.trace.frame.TraceFrame`
(:meth:`SyntheticEngine._emit`), and both pipelines start from it:

- ``direct`` — the emitted frame is the trace (vectorized; use this for
  characterization and cache studies at scale);
- ``full`` — the emitted frame's events are replayed, in order, as real
  calls against the instrumented Concurrent File System on a simulated
  machine, flowing through per-node trace buffers, the collector, and
  drift-correcting postprocessing (use this to exercise the whole
  CHARISMA methodology); the trace is what the collector recorded.

Event *timing* within a job: a job's file uses are laid out in phases
across its lifetime; within a use, each rank's requests are paced evenly
over the phase window, so record-interleaved accesses from different
nodes genuinely interleave in time — the property that creates the
interprocess spatial locality the I/O-node cache study measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.cfs.modes import IOMode
from repro.errors import WorkloadError
from repro.trace.frame import FILE_DTYPE, FileTable, JobTable, TraceFrame
from repro.trace.records import NO_VALUE, EventKind, OpenFlags, TraceHeader
from repro.util.rng import SeedSequencePool
from repro.workload.apps import APP_REGISTRY, FileUse
from repro.workload.engines import WorkloadEngine, get_engine
from repro.workload.jobs import PlacedJob, schedule_jobs
from repro.workload.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cfs.filesystem import ConcurrentFileSystem
    from repro.cfs.instrument import InstrumentedCFS
    from repro.trace.collector import RawTrace

#: guard against accidentally planning an unrepresentable trace
MAX_EVENTS: int = 50_000_000


@dataclass
class GeneratedWorkload:
    """The output of a generation run."""

    frame: TraceFrame
    placed: list[PlacedJob]
    scenario: Scenario
    seed: int
    raw: RawTrace | None = None
    fs: ConcurrentFileSystem | None = None

    @property
    def n_jobs(self) -> int:
        """Total jobs in the period (traced or not)."""
        # an engine without a placement pass leaves placed empty; the
        # frame's job table is then the authoritative count
        return len(self.placed) if self.placed else len(self.frame.jobs)

    @property
    def n_traced_jobs(self) -> int:
        """Jobs whose file activity is in the trace."""
        if self.placed:
            return sum(1 for p in self.placed if p.spec.traced)
        return len(self.frame.jobs.traced)


class _Columns:
    """Accumulator for event columns, concatenated once at the end."""

    def __init__(self) -> None:
        self.time: list[np.ndarray] = []
        self.node: list[np.ndarray] = []
        self.job: list[np.ndarray] = []
        self.file: list[np.ndarray] = []
        self.kind: list[np.ndarray] = []
        self.mode: list[np.ndarray] = []
        self.flags: list[np.ndarray] = []
        self.offset: list[np.ndarray] = []
        self.size: list[np.ndarray] = []
        self.n = 0

    def add(
        self,
        time: np.ndarray,
        node: np.ndarray,
        job: int,
        file: int,
        kind: np.ndarray | int,
        offset: np.ndarray | int,
        size: np.ndarray | int,
        mode: int = NO_VALUE,
        flags: int = 0,
    ) -> None:
        n = len(time)
        if n == 0:
            return
        self.time.append(np.asarray(time, dtype=np.float64))
        self.node.append(np.asarray(node, dtype=np.int32))
        self.job.append(np.full(n, job, dtype=np.int32))
        self.file.append(np.full(n, file, dtype=np.int32))
        self.kind.append(
            np.asarray(kind, dtype=np.uint8)
            if isinstance(kind, np.ndarray)
            else np.full(n, kind, dtype=np.uint8)
        )
        self.mode.append(np.full(n, mode, dtype=np.int8))
        self.flags.append(np.full(n, flags, dtype=np.uint16))
        self.offset.append(
            np.asarray(offset, dtype=np.int64)
            if isinstance(offset, np.ndarray)
            else np.full(n, offset, dtype=np.int64)
        )
        self.size.append(
            np.asarray(size, dtype=np.int64)
            if isinstance(size, np.ndarray)
            else np.full(n, size, dtype=np.int64)
        )
        self.n += n
        if self.n > MAX_EVENTS:
            raise WorkloadError(
                f"planned trace exceeds {MAX_EVENTS} events; reduce the "
                "scenario scale or tighten max_requests_per_node_file"
            )

    def add_job_markers(self, p: PlacedJob) -> None:
        """The JOB_START/JOB_END pair every placed job gets, traced or not."""
        self.add(
            np.array([p.start]), np.array([p.base_node]), p.job, NO_VALUE,
            int(EventKind.JOB_START), 0, p.spec.n_nodes,
        )
        self.add(
            np.array([p.end]), np.array([p.base_node]), p.job, NO_VALUE,
            int(EventKind.JOB_END), 0, 0,
        )

    def to_frame(
        self,
        placed: list[PlacedJob],
        file_rows: list[tuple[int, int, int, int]],
        header: TraceHeader,
    ) -> TraceFrame:
        """Concatenate the blocks into a frame with ``placed``'s job table."""
        return TraceFrame.from_arrays(
            time=np.concatenate(self.time),
            node=np.concatenate(self.node),
            job=np.concatenate(self.job),
            file=np.concatenate(self.file),
            kind=np.concatenate(self.kind),
            offset=np.concatenate(self.offset),
            size=np.concatenate(self.size),
            mode=np.concatenate(self.mode),
            flags=np.concatenate(self.flags),
            jobs=JobTable.from_rows(
                (p.job, p.start, p.end, p.spec.n_nodes, p.spec.traced)
                for p in placed
            ),
            files=_file_table(file_rows),
            header=header,
        )


@dataclass(frozen=True, slots=True)
class _UseSchedule:
    """Times assigned to one file use: opens, per-rank op times, closes."""

    open_times: dict[int, float]
    op_times: dict[int, np.ndarray]
    close_times: dict[int, float]
    delete_time: float | None


def _schedule_use(
    use: FileUse, w0: float, w1: float, rng: np.random.Generator
) -> _UseSchedule:
    """Lay one use's operations over its phase window ``[w0, w1]``."""
    span = w1 - w0
    if span <= 0:
        raise WorkloadError("empty phase window")
    ranks = sorted(use.open_ranks)
    # opens fit strictly inside [w0, w0 + 4% of span), closes mirror them,
    # and all data operations live between — regardless of rank count
    stagger = min(span * 0.002, 0.04 * span / (len(ranks) + 1))
    open_times = {r: w0 + i * stagger for i, r in enumerate(ranks)}
    ops_lo = w0 + 0.05 * span
    ops_hi = w1 - 0.05 * span
    op_times: dict[int, np.ndarray] = {}
    if use.rr_schedule:
        members = sorted(use.node_plans)
        lengths = {r: len(use.node_plans[r]) for r in members}
        total = sum(lengths.values())
        if total:
            times = np.linspace(ops_lo, ops_hi, total)
            cursor = {r: 0 for r in members}
            per_rank: dict[int, list[float]] = {r: [] for r in members}
            k = 0
            rounds = max(lengths.values())
            for _ in range(rounds):
                for r in members:
                    if cursor[r] < lengths[r]:
                        per_rank[r].append(times[k])
                        cursor[r] += 1
                        k += 1
            op_times = {r: np.asarray(ts) for r, ts in per_rank.items()}
    else:
        max_len = max((len(p) for p in use.node_plans.values()), default=0)
        if max_len:
            dt = (ops_hi - ops_lo) / (max_len + 1)
            for r, plan in use.node_plans.items():
                phase_jitter = float(rng.random())
                noise = rng.uniform(-0.35, 0.35, size=len(plan))
                times = ops_lo + (np.arange(len(plan)) + phase_jitter + noise) * dt
                op_times[r] = np.clip(times, ops_lo, ops_hi)
    close_times = {r: w1 - (len(ranks) - i) * stagger for i, r in enumerate(ranks)}
    delete_time = w1 if use.delete_at_end else None
    return _UseSchedule(open_times, op_times, close_times, delete_time)


class SyntheticEngine(WorkloadEngine):
    """The calibrated CHARISMA planner (the paper's 1994 CFD mix).

    Samples the job mix, plans each traced job's file uses through the
    app models, emits them as one time-sorted frame, and realizes that
    via the ``direct`` (the frame itself) or ``full`` (its events
    replayed through the instrumented CFS) pipeline.  This is the
    original ``WorkloadGenerator`` body behind the engine interface; its
    output at a fixed seed is byte-identical to the code that predates
    that interface (enforced in ``tests/test_equivalence.py``).
    """

    name = "synthetic"
    validation = "marginals"

    # -- planning ----------------------------------------------------------------

    def plan(self) -> tuple[list[PlacedJob], dict[int, list[FileUse]]]:
        """Sample and place the job mix, then plan each traced job's files.

        Returns the placed jobs and, per traced job id, its file uses.
        """
        with obs.span("workload/plan"):
            pool = SeedSequencePool(self.seed)
            specs = self.scenario.job_mix().sample(
                self.scenario.duration_s, pool.rng("jobmix")
            )
            placed = schedule_jobs(
                specs,
                n_compute_nodes=self.scenario.machine.n_compute_nodes,
                max_concurrent=self.scenario.max_concurrent_jobs,
            )
            uses_by_job: dict[int, list[FileUse]] = {}
            for p in placed:
                if not p.spec.traced or p.spec.is_status:
                    continue
                app = APP_REGISTRY[p.spec.app]
                rng = pool.rng(f"job/{p.job}")
                uses_by_job[p.job] = app.build(
                    p.job, p.spec.n_nodes, self.scenario.models, rng
                )
            if obs.enabled():
                obs.add("workload.jobs", len(placed))
                obs.add(
                    "workload.traced_jobs",
                    sum(1 for p in placed if p.spec.traced),
                )
                obs.add(
                    "workload.file_uses",
                    sum(len(u) for u in uses_by_job.values()),
                )
        return placed, uses_by_job

    # -- emission and the two pipelines ------------------------------------------

    def run(self, pipeline: str = "direct") -> GeneratedWorkload:
        """Generate the workload trace via the chosen pipeline."""
        if pipeline == "direct":
            return self._run_direct()
        if pipeline == "full":
            return self._run_full()
        raise WorkloadError(f"unknown pipeline {pipeline!r} (use 'direct' or 'full')")

    def _header(self) -> TraceHeader:
        m = self.scenario.machine
        return TraceHeader(
            site=f"synthetic-{self.scenario.name}",
            n_compute_nodes=m.n_compute_nodes,
            n_io_nodes=m.n_io_nodes,
            notes=f"seed={self.seed} engine={self.name}",
        )

    def _emit(
        self, placed: list[PlacedJob], uses_by_job: dict[int, list[FileUse]]
    ) -> TraceFrame:
        """Every planned operation as one time-sorted frame.

        A use's file id is its emission order: file ``i`` is the ``i``-th
        use of ``[u for p in placed for u in uses_by_job.get(p.job, ())]``.
        """
        pool = SeedSequencePool(self.seed)
        with obs.span("workload/emit"):
            cols = _Columns()
            file_rows: list[tuple[int, int, int, int]] = []
            next_fid = 0
            for p in placed:
                cols.add_job_markers(p)
                uses = uses_by_job.get(p.job)
                if not uses:
                    continue
                n0 = cols.n
                next_fid = _emit_job(
                    p, uses, cols, file_rows, next_fid,
                    pool.rng(f"timing/{p.job}"),
                )
                if obs.enabled():
                    obs.hist("workload.events_per_job", float(cols.n - n0))
            return cols.to_frame(placed, file_rows, self._header())

    def _run_direct(self) -> GeneratedWorkload:
        placed, uses_by_job = self.plan()
        frame = self._emit(placed, uses_by_job)
        if obs.enabled():
            obs.add("workload.events", frame.n_events)
        return GeneratedWorkload(
            frame=frame, placed=placed, scenario=self.scenario, seed=self.seed
        )

    def _run_full(self) -> GeneratedWorkload:
        from repro.cfs.filesystem import ConcurrentFileSystem
        from repro.cfs.instrument import InstrumentedCFS
        from repro.machine.machine import IPSC860
        from repro.trace.collector import Collector
        from repro.trace.postprocess import postprocess
        from repro.trace.writer import TraceWriter

        placed, uses_by_job = self.plan()
        emitted = self._emit(placed, uses_by_job)
        pool = SeedSequencePool(self.seed)
        machine = IPSC860(
            config=self.scenario.machine, seed=int(pool.rng("machine").integers(2**31))
        )
        fs = ConcurrentFileSystem(
            n_io_nodes=self.scenario.machine.n_io_nodes,
            disks=[io.disk for io in machine.io_nodes],
        )
        collector = Collector(self._header(), clock=machine.collector_stamp)
        writer = TraceWriter(collector, machine.node_clock_reader)
        icfs = InstrumentedCFS(fs, writer, machine.node_clock_reader)

        uses = [u for p in placed for u in uses_by_job.get(p.job, ())]
        replay = _Replayer(icfs, fs, machine, uses)
        with obs.span("workload/full/replay"):
            replay.run(emitted.events)
            icfs.finish()
        if obs.enabled():
            obs.add("workload.replay_actions", emitted.n_events)
        with obs.span("workload/full/postprocess"):
            raw = collector.finish()
            frame = postprocess(raw)
        # attach the authoritative job table (placement metadata)
        frame = TraceFrame(frame.events, jobs=emitted.jobs, header=frame.header)
        fs.publish_obs()
        if obs.enabled():
            obs.add("workload.events", frame.n_events)
        return GeneratedWorkload(
            frame=frame, placed=placed, scenario=self.scenario, seed=self.seed,
            raw=raw, fs=fs,
        )


class WorkloadGenerator:
    """Engine-agnostic driver: resolves the scenario's engine and runs it.

    The engine is chosen by the ``engine`` argument when given, else by
    the scenario's ``engine`` field (``synthetic`` for every packaged
    CHARISMA scenario).  Unknown names raise
    :class:`~repro.errors.WorkloadError` listing the available engines.
    """

    def __init__(
        self, scenario: Scenario, seed: int = 0, engine: str | None = None
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        name = engine or getattr(scenario, "engine", None) or "synthetic"
        self.engine = get_engine(name)(scenario, seed)

    @property
    def engine_name(self) -> str:
        """Registry name of the resolved engine."""
        return type(self.engine).name

    def plan(self):
        """The engine's plan preview (engine-specific shape)."""
        return self.engine.plan()

    def run(
        self, pipeline: str = "direct", shards: int | None = None
    ) -> GeneratedWorkload:
        """Generate the workload trace via the engine's chosen pipeline.

        Generation runs in one process.  ``shards`` is accepted and
        ignored, because the pipeline benchmark's traced tour
        (``pipebench/worker.py``) calls ``run("full", shards=cores)``;
        that call gets the serial replay.
        """
        return self.engine.run(pipeline)

    def run_to_store(
        self, path, pipeline: str = "direct", chunk_size: int | None = None
    ) -> GeneratedWorkload:
        """Generate the workload, then write it as a chunked trace store.

        The whole trace is generated in memory first and its frame is
        written through :func:`~repro.trace.store.write_store`, so peak
        memory is the whole frame's; ``chunk_size`` only sets the store's
        chunking, which later readers stream chunk by chunk.  A
        ``chunk_size`` below 1 raises ``ValueError`` before anything is
        generated.  Returns the workload, its frame still attached.
        """
        from repro.trace.store import (
            DEFAULT_CHUNK_SIZE,
            _check_chunk_size,
            write_store,
        )

        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        _check_chunk_size(chunk_size)
        workload = self.run(pipeline)
        with obs.span("workload/store"):
            write_store(workload.frame, path, chunk_size=chunk_size)
        return workload


def _emit_job(
    p: PlacedJob,
    uses: list[FileUse],
    cols: _Columns,
    file_rows: list[tuple[int, int, int, int]],
    next_fid: int,
    rng: np.random.Generator,
) -> int:
    """Emit one traced job's open/transfer/close event blocks."""
    windows = _phase_windows(p, uses)
    for use, (w0, w1) in zip(uses, windows):
        fid = next_fid
        next_fid += 1
        sched = _schedule_use(use, w0, w1, rng)
        base = p.base_node
        flags = int(use.flags | OpenFlags.TRACED)
        for rank in sorted(use.open_ranks):
            cols.add(
                np.array([sched.open_times[rank]]),
                np.array([base + rank]),
                p.job, fid, int(EventKind.OPEN), NO_VALUE, NO_VALUE,
                mode=int(use.mode), flags=flags,
            )
        for rank, plan in use.node_plans.items():
            times = sched.op_times.get(rank)
            if times is None or len(plan) == 0:
                continue
            cols.add(
                times,
                np.full(len(plan), base + rank, dtype=np.int32),
                p.job, fid, plan.kinds, plan.offsets, plan.sizes,
            )
        for rank in sorted(use.open_ranks):
            cols.add(
                np.array([sched.close_times[rank]]),
                np.array([base + rank]),
                p.job, fid, int(EventKind.CLOSE), NO_VALUE, NO_VALUE,
            )
        if sched.delete_time is not None:
            cols.add(
                np.array([sched.delete_time]),
                np.array([base]),
                p.job, fid, int(EventKind.DELETE), NO_VALUE, NO_VALUE,
            )
        final_size = use.preexisting_size
        for plan in use.node_plans.values():
            w = plan.kinds == int(EventKind.WRITE)
            if w.any():
                final_size = max(
                    final_size, int((plan.offsets[w] + plan.sizes[w]).max())
                )
        file_rows.append(
            (
                fid,
                p.job if use.creates else NO_VALUE,
                p.job if use.delete_at_end else NO_VALUE,
                final_size,
            )
        )
    return next_fid


class _Replayer:
    """Replays an emitted frame's events through the instrumented CFS.

    Each event's file id names one planned use (``uses[file]``), and
    each node of a use opens it once, so descriptors are keyed by
    ``(file, node)``.  :meth:`run` walks the time-sorted events with the
    per-event numpy scalar extraction, ``EventKind`` construction, and
    per-use lookups hoisted out of the loop.  The one-event-at-a-time
    reference it must match lives in ``tests/replay_oracle.py``.
    """

    def __init__(
        self, icfs: InstrumentedCFS, fs: ConcurrentFileSystem, machine,
        uses: list[FileUse],
    ):
        self.icfs = icfs
        self.fs = fs
        self.machine = machine
        self.uses = uses
        self.fds: dict[tuple[int, int], int] = {}
        self.pointers: dict[int, int] = {}
        self.prepopulated: set[int] = set()

    def run(self, events: np.ndarray) -> None:
        """Replay ``events`` (time-sorted ``EVENT_DTYPE`` rows) in order."""
        time_ = events["time"].tolist()
        kind_ = events["kind"].tolist()
        job_ = events["job"].tolist()
        node_ = events["node"].tolist()
        file_ = events["file"].tolist()
        off_ = events["offset"].tolist()
        size_ = events["size"].tolist()

        # per-use attributes as file-id-indexed lists
        name_of = [u.name for u in self.uses]
        indep = [u.mode is IOMode.INDEPENDENT for u in self.uses]
        pre_size = [u.preexisting_size for u in self.uses]
        flags_of = [u.flags for u in self.uses]
        mode_of = [u.mode for u in self.uses]

        icfs = self.icfs
        fs = self.fs
        timebase = self.machine.timebase
        fds = self.fds
        pointers = self.pointers
        prepopulated = self.prepopulated
        icfs_read = icfs.read
        icfs_write_zeros = icfs.write_zeros
        icfs_lseek = icfs.lseek
        advance_to = timebase.advance_to
        k_open = int(EventKind.OPEN)
        k_close = int(EventKind.CLOSE)
        k_read = int(EventKind.READ)
        k_write = int(EventKind.WRITE)
        k_delete = int(EventKind.DELETE)
        k_job_start = int(EventKind.JOB_START)
        k_job_end = int(EventKind.JOB_END)

        for i in range(len(time_)):
            advance_to(time_[i])
            k = kind_[i]
            if k == k_read or k == k_write:
                fid = file_[i]
                fd = fds[(fid, node_[i])]
                offset = off_[i]
                if indep[fid] and pointers[fd] != offset:
                    icfs_lseek(fd, offset)
                if k == k_read:
                    data = icfs_read(fd, size_[i])
                    pointers[fd] = offset + len(data)
                else:
                    icfs_write_zeros(fd, size_[i])
                    pointers[fd] = offset + size_[i]
            elif k == k_open:
                fid = file_[i]
                if pre_size[fid] > 0 and fid not in prepopulated:
                    if not fs.exists(name_of[fid]):
                        fs.prepopulate(name_of[fid], pre_size[fid])
                    prepopulated.add(fid)
                fd = icfs.open(
                    name_of[fid], node_[i], job_[i], flags_of[fid], mode_of[fid]
                )
                fds[(fid, node_[i])] = fd
                pointers[fd] = 0
            elif k == k_close:
                fd = fds.pop((file_[i], node_[i]))
                pointers.pop(fd, None)
                icfs.close(fd)
            elif k == k_delete:
                icfs.unlink(name_of[file_[i]], node_[i], job_[i])
            elif k == k_job_start:
                icfs.job_start(job_[i], node_[i], size_[i])
            elif k == k_job_end:
                icfs.job_end(job_[i], node_[i])
            else:  # pragma: no cover - defensive
                raise WorkloadError(f"unexpected event kind {k}")


def _phase_windows(p: PlacedJob, uses: list[FileUse]) -> list[tuple[float, float]]:
    """Assign each use its time window from the job's phase layout."""
    phases = sorted({u.phase for u in uses})
    dur = p.spec.duration
    lo = p.start + 0.02 * dur
    hi = p.end - 0.02 * dur
    n = len(phases)
    width = (hi - lo) / n
    bounds = {ph: (lo + i * width, lo + (i + 1) * width) for i, ph in enumerate(phases)}
    return [bounds[u.phase] for u in uses]


def _file_table(rows: list[tuple[int, int, int, int]]) -> FileTable:
    arr = np.zeros(len(rows), dtype=FILE_DTYPE)
    for i, row in enumerate(rows):
        arr[i] = row
    return FileTable(arr)
