"""Columnar trace representation.

A :class:`TraceFrame` holds a whole (post-processed) trace as numpy
structured arrays: one row per event, plus side tables describing jobs and
files.  Every characterization in :mod:`repro.core` and every cache
simulation in :mod:`repro.caching` is computed from a frame, usually with
vectorized numpy operations — traces at the paper's scale run to millions
of events, far too many for per-record Python objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace.records import NO_VALUE, EventKind, Record, TraceHeader

#: dtype of the per-event table.
EVENT_DTYPE = np.dtype(
    [
        ("time", np.float64),
        ("node", np.int32),
        ("job", np.int32),
        ("file", np.int32),
        ("kind", np.uint8),
        ("mode", np.int8),
        ("flags", np.uint16),
        ("offset", np.int64),
        ("size", np.int64),
    ]
)

#: dtype of the job side table.
JOB_DTYPE = np.dtype(
    [
        ("job", np.int32),
        ("start", np.float64),
        ("end", np.float64),
        ("nodes", np.int32),
        ("traced", np.bool_),
    ]
)

#: dtype of the file side table.
FILE_DTYPE = np.dtype(
    [
        ("file", np.int32),
        ("creator_job", np.int32),
        ("deleter_job", np.int32),
        ("final_size", np.int64),
    ]
)


class JobTable:
    """Side table of jobs: id, start/end times, node count, traced flag.

    Includes *all* jobs, traced or not — the paper recorded every job
    start/end through a separate mechanism precisely so Figures 1 and 2
    could describe the full machine occupancy.
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=JOB_DTYPE)
        if data.ndim != 1:
            raise TraceError("job table must be one-dimensional")
        if len(np.unique(data["job"])) != len(data):
            raise TraceError("duplicate job ids in job table")
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key):  # numpy-style field / index access
        return self.data[key]

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[int, float, float, int, bool]]
    ) -> "JobTable":
        """Build from (job, start, end, nodes, traced) tuples."""
        rows = list(rows)
        arr = np.zeros(len(rows), dtype=JOB_DTYPE)
        for i, (job, start, end, nodes, traced) in enumerate(rows):
            if end < start:
                raise TraceError(f"job {job} ends before it starts")
            if nodes <= 0:
                raise TraceError(f"job {job} has non-positive node count")
            arr[i] = (job, start, end, nodes, traced)
        return cls(arr)

    @property
    def traced(self) -> np.ndarray:
        """Rows for jobs whose file activity was traced."""
        return self.data[self.data["traced"]]

    def duration(self, job: int) -> float:
        """Wall-clock duration of one job."""
        row = self.data[self.data["job"] == job]
        if len(row) == 0:
            raise KeyError(f"no such job {job}")
        return float(row["end"][0] - row["start"][0])

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) across all jobs."""
        if len(self.data) == 0:
            raise TraceError("empty job table")
        return float(self.data["start"].min()), float(self.data["end"].max())


class FileTable:
    """Side table of files: creator job, deleter job, final size.

    ``deleter_job`` is :data:`~repro.trace.records.NO_VALUE` for files never
    deleted; a file is *temporary* in the paper's sense when its creator and
    deleter are the same job.
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=FILE_DTYPE)
        if data.ndim != 1:
            raise TraceError("file table must be one-dimensional")
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key):
        return self.data[key]

    @property
    def temporary(self) -> np.ndarray:
        """Boolean mask of files deleted by the job that created them."""
        d = self.data
        return (d["deleter_job"] != NO_VALUE) & (d["deleter_job"] == d["creator_job"])


class TraceFrame:
    """One trace, post-processed and ready for analysis.

    Parameters
    ----------
    events:
        Structured array of dtype :data:`EVENT_DTYPE`, ordered by time.
    jobs:
        The :class:`JobTable`; derived from JOB_START/JOB_END events if
        omitted.
    files:
        Optional :class:`FileTable`; derived from OPEN/DELETE events if
        omitted.
    header:
        The self-descriptive trace header.
    """

    def __init__(
        self,
        events: np.ndarray,
        jobs: JobTable | None = None,
        files: FileTable | None = None,
        header: TraceHeader | None = None,
    ) -> None:
        events = np.asarray(events, dtype=EVENT_DTYPE)
        if events.ndim != 1:
            raise TraceError("event table must be one-dimensional")
        self.events = events
        self.header = header if header is not None else TraceHeader()
        # frames are immutable, so kind views are computed at most once
        # and never invalidated
        self._kind_views: dict[tuple[int, ...], np.ndarray] = {}
        self.jobs = jobs if jobs is not None else self._derive_jobs()
        self.files = files if files is not None else self._derive_files()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Sequence[Record],
        header: TraceHeader | None = None,
        jobs: JobTable | None = None,
        sort: bool = True,
    ) -> "TraceFrame":
        """Build a frame from in-memory records, sorting by time by default."""
        arr = np.zeros(len(records), dtype=EVENT_DTYPE)
        for i, r in enumerate(records):
            arr[i] = (
                r.time,
                r.node,
                r.job,
                r.file,
                int(r.kind),
                r.mode,
                r.flags,
                r.offset,
                r.size,
            )
        if sort:
            arr = arr[np.argsort(arr["time"], kind="stable")]
        return cls(arr, jobs=jobs, header=header)

    @classmethod
    def from_arrays(
        cls,
        *,
        time: np.ndarray,
        node: np.ndarray,
        job: np.ndarray,
        file: np.ndarray,
        kind: np.ndarray,
        offset: np.ndarray,
        size: np.ndarray,
        mode: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        jobs: JobTable | None = None,
        files: FileTable | None = None,
        header: TraceHeader | None = None,
        sort: bool = True,
    ) -> "TraceFrame":
        """Build a frame from parallel column arrays (the fast path).

        All columns must share one length; ``mode`` defaults to -1 and
        ``flags`` to 0.
        """
        n = len(time)
        for name, col in (
            ("node", node),
            ("job", job),
            ("file", file),
            ("kind", kind),
            ("offset", offset),
            ("size", size),
        ):
            if len(col) != n:
                raise TraceError(f"column {name!r} has length {len(col)}, expected {n}")
        arr = np.zeros(n, dtype=EVENT_DTYPE)
        arr["time"] = time
        arr["node"] = node
        arr["job"] = job
        arr["file"] = file
        arr["kind"] = kind
        arr["mode"] = mode if mode is not None else NO_VALUE
        arr["flags"] = flags if flags is not None else 0
        arr["offset"] = offset
        arr["size"] = size
        if sort:
            arr = arr[np.argsort(arr["time"], kind="stable")]
        return cls(arr, jobs=jobs, files=files, header=header)

    def _derive_jobs(self) -> JobTable:
        ev = self.events
        starts = ev[ev["kind"] == EventKind.JOB_START]
        ends = ev[ev["kind"] == EventKind.JOB_END]
        end_by_job = dict(zip(ends["job"].tolist(), ends["time"].tolist()))
        rows = []
        traced_jobs = set(
            np.unique(ev["job"][(ev["kind"] != EventKind.JOB_START) & (ev["kind"] != EventKind.JOB_END)]).tolist()
        )
        for row in starts:
            job = int(row["job"])
            start = float(row["time"])
            end = float(end_by_job.get(job, self.events["time"].max() if len(self.events) else start))
            nodes = int(row["size"]) if row["size"] != NO_VALUE else 1
            rows.append((job, start, max(start, end), nodes, job in traced_jobs))
        return JobTable.from_rows(rows)

    def _derive_files(self) -> FileTable:
        ev = self.events
        opens = ev[ev["kind"] == EventKind.OPEN]
        deletes = ev[ev["kind"] == EventKind.DELETE]
        from repro.trace.records import OpenFlags

        file_ids = np.unique(ev["file"][ev["file"] != NO_VALUE])
        creator: dict[int, int] = {}
        for row in opens:
            fid = int(row["file"])
            if fid not in creator and (int(row["flags"]) & OpenFlags.CREATE):
                creator[fid] = int(row["job"])
        deleter = {int(r["file"]): int(r["job"]) for r in deletes}
        arr = np.zeros(len(file_ids), dtype=FILE_DTYPE)
        # final size: highest end-offset written/extended, else read
        transfers = ev[(ev["kind"] == EventKind.WRITE) | (ev["kind"] == EventKind.READ) | (ev["kind"] == EventKind.EXTEND)]
        end_off = np.where(
            transfers["kind"] == EventKind.EXTEND,
            transfers["size"],
            transfers["offset"] + transfers["size"],
        )
        size_by_file: dict[int, int] = {}
        if len(transfers):
            order = np.argsort(transfers["file"], kind="stable")
            tf = transfers["file"][order]
            te = end_off[order]
            bounds = np.searchsorted(tf, file_ids, side="left")
            bounds_hi = np.searchsorted(tf, file_ids, side="right")
            for fid, lo, hi in zip(file_ids.tolist(), bounds.tolist(), bounds_hi.tolist()):
                if hi > lo:
                    size_by_file[fid] = int(te[lo:hi].max())
        for i, fid in enumerate(file_ids.tolist()):
            arr[i] = (
                fid,
                creator.get(fid, NO_VALUE),
                deleter.get(fid, NO_VALUE),
                size_by_file.get(fid, 0),
            )
        return FileTable(arr)

    # -- selection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_events(self) -> int:
        """Number of events in the frame."""
        return len(self.events)

    def of_kind(self, *kinds: EventKind) -> np.ndarray:
        """Events whose kind is one of ``kinds`` (a structured subarray).

        Results are cached on the frame (frames are immutable) and marked
        read-only so a stale-view bug fails loudly instead of silently
        corrupting every later analysis.
        """
        key = tuple(sorted(int(k) for k in kinds))
        view = self._kind_views.get(key)
        if view is None:
            mask = np.isin(self.events["kind"], list(key))
            view = self.events[mask]
            view.flags.writeable = False
            self._kind_views[key] = view
        return view

    @property
    def reads(self) -> np.ndarray:
        """All READ events."""
        return self.of_kind(EventKind.READ)

    @property
    def writes(self) -> np.ndarray:
        """All WRITE events."""
        return self.of_kind(EventKind.WRITE)

    @property
    def transfers(self) -> np.ndarray:
        """All READ and WRITE events, in time order."""
        return self.of_kind(EventKind.READ, EventKind.WRITE)

    @property
    def opens(self) -> np.ndarray:
        """All OPEN events."""
        return self.of_kind(EventKind.OPEN)

    @property
    def closes(self) -> np.ndarray:
        """All CLOSE events."""
        return self.of_kind(EventKind.CLOSE)

    def for_job(self, job: int) -> "TraceFrame":
        """A sub-frame restricted to one job's events."""
        ev = self.events[self.events["job"] == job]
        jobs = JobTable(self.jobs.data[self.jobs.data["job"] == job])
        return TraceFrame(ev, jobs=jobs, files=self.files, header=self.header)

    def for_file(self, file: int) -> np.ndarray:
        """All events touching one file, in time order."""
        return self.events[self.events["file"] == file]

    def time_span(self) -> tuple[float, float]:
        """(first, last) event time; prefers the job table when present."""
        if len(self.jobs):
            return self.jobs.span()
        if len(self.events) == 0:
            raise TraceError("empty trace")
        return float(self.events["time"][0]), float(self.events["time"][-1])

    # -- integrity ------------------------------------------------------------

    def is_time_sorted(self) -> bool:
        """True when events are in non-decreasing time order."""
        t = self.events["time"]
        return bool(np.all(t[:-1] <= t[1:])) if len(t) > 1 else True

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TraceError` on failure.

        Verifies time ordering, that transfer records carry non-negative
        offsets/sizes and real file ids, and that OPEN modes are in 0-3.
        """
        if not self.is_time_sorted():
            raise TraceError("events are not sorted by time")
        tr = self.transfers
        if len(tr):
            if (tr["offset"] < 0).any() or (tr["size"] < 0).any():
                raise TraceError("transfer with negative offset or size")
            if (tr["file"] < 0).any():
                raise TraceError("transfer with missing file id")
        op = self.opens
        if len(op) and ((op["mode"] < 0) | (op["mode"] > 3)).any():
            raise TraceError("OPEN with I/O mode outside 0-3")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceFrame(events={len(self.events)}, jobs={len(self.jobs)}, "
            f"files={len(self.files)})"
        )
