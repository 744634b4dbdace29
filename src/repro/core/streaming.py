"""The characterization engine: every §4 number, in one pass.

:func:`repro.core.report.characterize` runs every analysis family
through this module, in memory and out-of-core alike.  It makes one
pass over the chunks of a :class:`~repro.trace.store.TraceSource` (an
in-memory frame is wrapped in a :class:`~repro.trace.store.FrameSource`),
folding each chunk into a mergeable :class:`ChunkAccumulator`, then
finalizes every family from the merged partials — without ever
materializing the whole event table.  The per-family analyzers of
:mod:`repro.core` (``population``, ``per_file_regularity``,
``sharing_per_file`` ...) run the same finalizers over :func:`fold`, one
accumulator per frame, so this module is the only code that computes a
characterization number.  Each event is touched exactly once; each
family reduces to a finalizer over the fused state:

- jobstats need only the job side table, which travels whole with any
  source;
- filestats / requests / modes / intervals reduce to per-file or
  per-size counting.  All byte totals are integer sums (exact in
  float64 far beyond trace scale), medians fall out of size→count
  histograms, and the distinct-pair tables are sorted-array unions —
  all order-independent;
- sequentiality is chunk-mergeable because chunks are contiguous
  slices of the time-sorted stream, so each (file, node) group's
  request order is preserved across chunk boundaries.  The accumulator
  carries each group's last request out of every chunk and resolves
  the boundary transition when the group's next chunk (or the merge of
  two accumulators) supplies the following request;
- sharing / interjob fold as (a) per-(file, node) and per-(file, job)
  open/close window extrema (min open time, max close time) and (b)
  canonical per-(file, node) byte-interval unions.  Interval union is
  associative and the union of maximal runs is unique, so incremental
  per-chunk unions merged at finalize time are bit-identical to the
  full-frame union; block runs are those byte runs rounded out to block
  edges and unioned again.

The accumulator itself is vectorized: each chunk contributes small
canonical numpy arrays (deduplicated pairs, per-key counts, unioned
runs) that are concatenated and re-aggregated lazily, so no per-event or
per-group Python loop runs during the scan.  Deferred contributions are
collapsed to their canonical aggregates after a fixed number of chunks
or a fixed number of events, whichever comes first, so the state held
between chunks is bounded by the trace's distinct keys plus one event
budget — not by the trace's length.  Two accumulators over adjacent
chunk ranges merge left to right into the state one scan would hold,
which is how the trace-service daemon folds chunks that arrive out of
order.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro import obs
from repro.core.filestats import FilePopulation
from repro.core.jobstats import (
    concurrency_profile_from_jobs,
    files_per_job_from_counts,
    node_count_distribution_from_jobs,
)
from repro.core.modes import ModeUsage
from repro.core.report import WorkloadReport
from repro.core.requests import RequestSizeSummary
from repro.core.sequentiality import FileRegularity
from repro.core.sharing import SharingResult
from repro.errors import AnalysisError
from repro.trace.frame import FileTable, JobTable, TraceFrame
from repro.trace.records import NO_VALUE, EventKind
from repro.trace.store import TraceSource
from repro.util.cdf import EmpiricalCDF
from repro.util.histogram import bucket_counts
from repro.util.units import BLOCK_SIZE

__all__ = [
    "ChunkAccumulator",
    "finalize_distinct_counts",
    "finalize_distinct_table",
    "finalize_file_classes",
    "finalize_files_per_job",
    "finalize_fused",
    "finalize_modes",
    "finalize_population",
    "finalize_regularity",
    "finalize_request_summary",
    "finalize_sharing",
    "finalize_size_cdf",
    "finalize_span_files",
    "finalize_zero_interval_dominance",
    "fold",
]

_OPEN = int(EventKind.OPEN)
_CLOSE = int(EventKind.CLOSE)
_READ = int(EventKind.READ)
_WRITE = int(EventKind.WRITE)

_SHIFT = np.int64(2**32)
_HALF = np.int64(2**31)
_LOW = np.int64(0xFFFFFFFF)


def _pack_key(file_ids: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """One int64 key per (file, node); both are non-negative int32s."""
    return file_ids * _SHIFT + nodes


def _pack_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per (a, b) in lexicographic (a, b) order; b may be
    negative (``key >> 32`` recovers ``a``, ``(key & LOW) - HALF`` is
    ``b``)."""
    return a * _SHIFT + (b + _HALF)


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start indices of the contiguous equal-key runs in a sorted array."""
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.int64)
    new = np.ones(len(sorted_keys), dtype=bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(new)


def _dedupe_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique (a, b) rows in lexicographic order."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    if len(a) == 0:
        return a, b
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


def _in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership of ``needles`` in the sorted unique ``haystack``."""
    if len(haystack) == 0:
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    found = pos < len(haystack)
    found &= haystack[np.minimum(pos, len(haystack) - 1)] == needles
    return found


def _union_runs(
    keys: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical per-key interval union: maximal runs, grouped by key
    ascending and start-sorted within a key.

    Touching intervals coalesce; the per-group offset trick gives an
    exact segmented running max.  The union of maximal runs is unique, so
    this is idempotent and associative — incremental per-chunk unions
    merged later equal the one-shot union bit for bit.
    """
    if len(keys) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    order = np.lexsort((starts, keys))
    k, s, e = keys[order], starts[order], ends[order]
    new_key = np.ones(len(k), dtype=bool)
    new_key[1:] = k[1:] != k[:-1]
    group = np.cumsum(new_key) - 1
    span = np.int64(int(e.max()) + 1)
    if int(span) * int(group[-1] + 1) >= 2**62:  # pragma: no cover - pathological
        return _union_runs_slow(k, s, e, new_key)
    off = group * span
    running_max = np.maximum.accumulate(e + off) - off
    is_new = new_key.copy()
    if len(s) > 1:
        is_new[1:] |= s[1:] > running_max[:-1]
    run_starts = np.flatnonzero(is_new)
    return k[run_starts], s[run_starts], np.maximum.reduceat(e, run_starts)


def _union_runs_slow(k, s, e, new_key):  # pragma: no cover - pathological
    out_k: list[int] = []
    out_s: list[int] = []
    out_e: list[int] = []
    for key, a, b, fresh in zip(k.tolist(), s.tolist(), e.tolist(), new_key.tolist()):
        if not fresh and out_s and a <= out_e[-1]:
            out_e[-1] = max(out_e[-1], b)
        else:
            out_k.append(key)
            out_s.append(a)
            out_e.append(b)
    return (
        np.asarray(out_k, dtype=np.int64),
        np.asarray(out_s, dtype=np.int64),
        np.asarray(out_e, dtype=np.int64),
    )


# -- part aggregators ---------------------------------------------------------
#
# The accumulator defers everything order-independent: each chunk appends
# raw per-chunk arrays to per-part lists, and these aggregators collapse a
# list to one canonical entry.  All are idempotent and associative, so a
# part may hold any mix of raw chunk contributions and earlier collapses —
# the scan itself never sorts what the aggregator will sort again.

#: collapse a part back to its canonical aggregate once this many raw
#: chunk contributions pile up — keeps the per-part lists short on scans
#: of many small chunks while the common few-chunk case stays down to a
#: single sort per part
_COLLAPSE_EVERY = 64

#: collapse *every* part once this many events have been folded since the
#: last full collapse — bounds the raw rows held on scans of large chunks,
#: where the part count alone would let millions of events pile up
_COLLAPSE_EVENTS = 1 << 18


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _agg_counts(parts: list, ncols: int = 1) -> tuple:
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return (e,) + tuple(e.copy() for _ in range(ncols))
    keys = _cat([p[0] for p in parts])
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = _group_starts(ks)
    out = tuple(
        np.add.reduceat(_cat([p[i + 1] for p in parts])[order], starts)
        for i in range(ncols)
    )
    return (ks[starts],) + out


def _agg_counts3(parts: list) -> tuple:
    return _agg_counts(parts, ncols=3)


def _agg_reduce(parts: list, ufunc) -> tuple:
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys = _cat([p[0] for p in parts])
    vals = _cat([p[1] for p in parts])
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = _group_starts(ks)
    return ks[starts], ufunc.reduceat(vals[order], starts)


def _agg_min(parts: list) -> tuple:
    return _agg_reduce(parts, np.minimum)


def _agg_max(parts: list) -> tuple:
    return _agg_reduce(parts, np.maximum)


def _agg_first(parts: list) -> tuple:
    """Per key, the value from its earliest appearance (parts are kept in
    chunk order, so concatenation order is stream order)."""
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    keys = _cat([p[0] for p in parts])
    vals = _cat([p[1] for p in parts])
    uk, idx = np.unique(keys, return_index=True)
    return uk, vals[idx]


def _agg_unique(parts: list) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(_cat(parts))


def _agg_pairs(parts: list) -> tuple:
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    return _dedupe_pairs(_cat([p[0] for p in parts]), _cat([p[1] for p in parts]))


def _agg_runs(parts: list) -> tuple:
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    return _union_runs(
        _cat([p[0] for p in parts]),
        _cat([p[1] for p in parts]),
        _cat([p[2] for p in parts]),
    )


_PART_AGGS = {
    "events": _agg_counts,          # (file, event count)
    "opens": _agg_counts,           # (file, open count)
    "mode_counts": _agg_counts,     # (mode, open count)
    "first_mode": _agg_first,       # (file, mode of first OPEN)
    "open_pairs": _agg_unique,      # packed (job, file)
    "read_sizes": _agg_counts,      # (size, count)
    "write_sizes": _agg_counts,
    "read_files": _agg_unique,
    "written_files": _agg_unique,
    "size_pairs": _agg_pairs,       # (file, request size)
    "interval_pairs": _agg_pairs,   # (file, interval)
    "trans": _agg_counts3,          # (file, transitions, sequential, consecutive)
    "node_open": _agg_min,          # (packed (file, node), first open time)
    "node_close": _agg_max,         # (packed (file, node), last close time)
    "job_open": _agg_min,
    "job_close": _agg_max,
    "byte_runs": _agg_runs,         # (packed (file, node), start, end)
}


class ChunkAccumulator:
    """Mergeable partial state of *every* characterization family.

    ``update`` folds in one chunk; ``merge`` combines two accumulators
    covering *adjacent* chunk ranges (left before right).  State is
    numpy arrays throughout — per-chunk contributions are appended to
    part lists and collapsed lazily (:meth:`part`), so the scan runs no
    per-group Python loops.  A part collapses once it holds
    ``_COLLAPSE_EVERY`` contributions, and every part collapses once
    ``_COLLAPSE_EVENTS`` events have been folded since the last full
    collapse, so raw rows never outgrow that budget plus one chunk.
    """

    def __init__(self) -> None:
        self.n_events = 0
        #: events folded since every part was last collapsed
        self._raw_events = 0
        self.n_opens = 0
        self.n_transfers = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._parts: dict[str, list] = {name: [] for name in _PART_AGGS}
        # id of a part's entry when the list is exactly its own collapsed
        # aggregate — lets part() skip redundant re-aggregation
        self._agg_ids: dict[str, int] = {}
        # sequentiality boundary state, keyed by packed (file, node):
        # carry = (last offset, last end) seen so far; boundary-first =
        # (file, first offset) awaiting a *preceding* request at merge time
        e = np.empty(0, dtype=np.int64)
        self._carry_keys, self._carry_off, self._carry_end = e, e.copy(), e.copy()
        self._bf_keys, self._bf_file, self._bf_off = e.copy(), e.copy(), e.copy()

    # -- aggregated views ----------------------------------------------------

    def part(self, name: str):
        """The canonical aggregate of one deferred part (cached)."""
        parts = self._parts[name]
        if len(parts) == 1 and self._agg_ids.get(name) == id(parts[0]):
            return parts[0]
        agg = _PART_AGGS[name](parts)
        self._parts[name] = [agg]
        self._agg_ids[name] = id(agg)
        return agg

    def compact(self, runs: bool = True) -> "ChunkAccumulator":
        """Collapse every part to its canonical aggregate.  ``runs=False``
        leaves the byte-run part raw — a finished scan skips its final
        union because the sharing finalizer re-unions only the candidate
        files' rows.  Returns self."""
        for name in _PART_AGGS:
            if not runs and name == "byte_runs":
                continue
            if self._parts[name]:
                self.part(name)
        if runs:
            self._raw_events = 0
        return self

    def _bound(self) -> None:
        """Collapse what the part-count and event budgets call for."""
        if self._raw_events >= _COLLAPSE_EVENTS:
            self.compact()
            return
        for name, parts in self._parts.items():
            if len(parts) >= _COLLAPSE_EVERY:
                self.part(name)

    # -- folding in one chunk ------------------------------------------------

    def update(self, events: np.ndarray) -> None:
        n = len(events)
        if n == 0:
            return
        self.n_events += n
        self._raw_events += n
        kind = events["kind"]
        files64 = events["file"].astype(np.int64)

        valid = files64 != NO_VALUE
        if valid.any():
            vf = files64[valid]
            self._parts["events"].append((vf, np.ones(len(vf), dtype=np.int64)))

        opens = events[kind == _OPEN]
        if len(opens):
            self._update_opens(opens)
        read_mask = kind == _READ
        write_mask = kind == _WRITE
        self._update_sizes(events, read_mask, "read_sizes", "read_files",
                           "bytes_read")
        self._update_sizes(events, write_mask, "write_sizes", "written_files",
                           "bytes_written")
        tmask = read_mask | write_mask
        if tmask.any():
            self._update_transfers(events[tmask])
        self._update_spans(opens, events[kind == _CLOSE])
        self._bound()

    def _update_opens(self, opens: np.ndarray) -> None:
        self.n_opens += len(opens)
        of = opens["file"].astype(np.int64)
        modes = opens["mode"].astype(np.int64)
        ones = np.ones(len(of), dtype=np.int64)
        self._parts["mode_counts"].append((modes, ones))
        self._parts["opens"].append((of, ones))
        # raw chunk order *is* stream order, which _agg_first relies on
        self._parts["first_mode"].append((of, modes))
        self._parts["open_pairs"].append(
            _pack_pair(opens["job"].astype(np.int64), of)
        )

    def _update_sizes(self, events, mask, size_part, file_part, bytes_attr):
        if not mask.any():
            return
        sizes = events["size"][mask].astype(np.int64)
        setattr(self, bytes_attr, getattr(self, bytes_attr) + int(sizes.sum()))
        self._parts[size_part].append(
            (sizes, np.ones(len(sizes), dtype=np.int64))
        )
        self._parts[file_part].append(events["file"][mask].astype(np.int64))

    def _update_transfers(self, tr: np.ndarray) -> None:
        files = tr["file"].astype(np.int64)
        sizes = tr["size"].astype(np.int64)
        self.n_transfers += len(tr)
        self._parts["size_pairs"].append((files, sizes))

        # group by (file, node); the stable sort keeps time order within
        # groups
        key = _pack_key(files, tr["node"].astype(np.int64))
        order = np.argsort(key, kind="stable")
        keys = key[order]
        off = tr["offset"].astype(np.int64)[order]
        end = off + sizes[order]
        grp_files = files[order]
        m = len(keys)
        starts = _group_starts(keys)
        gend = np.append(starts[1:], m)
        same = np.ones(m, dtype=bool)
        same[starts] = False
        prev_off = np.empty(m, dtype=np.int64)
        prev_end = np.empty(m, dtype=np.int64)
        prev_off[1:] = off[:-1]
        prev_end[1:] = end[:-1]

        # stitch each group's first request to the carry from earlier
        # chunks (or queue it for merge-time stitching)
        gkeys = keys[starts]
        found = _in_sorted(self._carry_keys, gkeys)
        if found.any():
            pos = np.searchsorted(self._carry_keys, gkeys[found])
            hit_rows = starts[found]
            prev_off[hit_rows] = self._carry_off[pos]
            prev_end[hit_rows] = self._carry_end[pos]
            same[hit_rows] = True
        fresh = ~found
        if fresh.any():
            cand = gkeys[fresh]
            new = ~_in_sorted(self._bf_keys, cand)
            if new.any():
                rows = starts[fresh][new]
                self._insert_boundary_first(cand[new], grp_files[rows], off[rows])
        lasts = gend - 1
        self._set_carry(gkeys, off[lasts], end[lasts])

        seq = same & (off > prev_off)
        con = same & (off == prev_end)
        if same.any():
            self._parts["interval_pairs"].append(
                (grp_files[same], (off - prev_end)[same])
            )
        # per-file transition counts: keys are file-major, so file groups
        # are contiguous in the same sorted view
        fstarts = _group_starts(grp_files)
        self._parts["trans"].append((
            grp_files[fstarts],
            np.add.reduceat(same.astype(np.int64), fstarts),
            np.add.reduceat(seq.astype(np.int64), fstarts),
            np.add.reduceat(con.astype(np.int64), fstarts),
        ))

        keep = end > off  # zero-size transfers touch no bytes
        if keep.any():
            nodes = tr["node"].astype(np.int64)[order][keep]
            rk = _pack_pair(grp_files[keep], nodes)
            self._parts["byte_runs"].append((rk, off[keep], end[keep]))

    def _update_spans(self, opens: np.ndarray, closes: np.ndarray) -> None:
        for ev, key_field, part in (
            (opens, "node", "node_open"),
            (opens, "job", "job_open"),
            (closes, "node", "node_close"),
            (closes, "job", "job_close"),
        ):
            if len(ev) == 0:
                continue
            k = _pack_pair(
                ev["file"].astype(np.int64), ev[key_field].astype(np.int64)
            )
            self._parts[part].append((k, np.ascontiguousarray(ev["time"])))

    # -- seam state ----------------------------------------------------------

    def _set_carry(self, keys, off, end) -> None:
        """Overwrite the carried last request per group (new wins)."""
        if len(self._carry_keys):
            keep = ~_in_sorted(keys, self._carry_keys)
            keys = np.concatenate([self._carry_keys[keep], keys])
            off = np.concatenate([self._carry_off[keep], off])
            end = np.concatenate([self._carry_end[keep], end])
            order = np.argsort(keys, kind="stable")
            keys, off, end = keys[order], off[order], end[order]
        self._carry_keys, self._carry_off, self._carry_end = keys, off, end

    def _insert_boundary_first(self, keys, file_ids, off) -> None:
        """Record groups still awaiting a preceding request (first wins;
        callers pass only keys not yet present)."""
        keys = np.concatenate([self._bf_keys, keys])
        file_ids = np.concatenate([self._bf_file, file_ids])
        off = np.concatenate([self._bf_off, off])
        order = np.argsort(keys, kind="stable")
        self._bf_keys = keys[order]
        self._bf_file = file_ids[order]
        self._bf_off = off[order]

    # -- combining adjacent ranges -------------------------------------------

    def merge(self, other: "ChunkAccumulator") -> None:
        """Fold ``other`` (covering the chunks *after* ours) into self."""
        self.n_events += other.n_events
        self._raw_events += other._raw_events
        self.n_opens += other.n_opens
        self.n_transfers += other.n_transfers
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        # resolve the transitions that straddle the seam: other's first
        # request of a group follows self's carried last request
        if len(other._bf_keys):
            found = _in_sorted(self._carry_keys, other._bf_keys)
            if found.any():
                pos = np.searchsorted(self._carry_keys, other._bf_keys[found])
                fid = other._bf_file[found]
                first_off = other._bf_off[found]
                last_off = self._carry_off[pos]
                last_end = self._carry_end[pos]
                ones = np.ones(len(fid), dtype=np.int64)
                self._parts["trans"].append((
                    fid,
                    ones,
                    (first_off > last_off).astype(np.int64),
                    (first_off == last_end).astype(np.int64),
                ))
                self._parts["interval_pairs"].append(
                    _dedupe_pairs(fid, first_off - last_end)
                )
            pending = ~found
            if pending.any():
                cand = other._bf_keys[pending]
                new = ~_in_sorted(self._bf_keys, cand)
                if new.any():
                    self._insert_boundary_first(
                        cand[new],
                        other._bf_file[pending][new],
                        other._bf_off[pending][new],
                    )
        if len(other._carry_keys):
            self._set_carry(
                other._carry_keys, other._carry_off, other._carry_end
            )
        for name, parts in other._parts.items():
            self._parts[name].extend(parts)
        self._bound()


def _scan_chunks(source: TraceSource) -> ChunkAccumulator:
    """One accumulator over every chunk of ``source``, in order."""
    t0 = time.perf_counter()
    acc = ChunkAccumulator()
    for i in range(source.n_chunks):
        acc.update(source.chunk(i))
    # the run union can wait for finalize, which unions only the
    # candidate files' rows
    acc.compact(runs=False)
    if obs.enabled():
        obs.add("fused.chunks", source.n_chunks)
        obs.add("fused.events", acc.n_events)
        obs.hist("fused.scan_seconds", time.perf_counter() - t0)
    return acc


# -- the per-frame fold --------------------------------------------------------

#: frame → its fold; weak, so a fold lives exactly as long as its frame
_FOLDS: "weakref.WeakKeyDictionary[TraceFrame, ChunkAccumulator]" = (
    weakref.WeakKeyDictionary()
)


def fold(frame: TraceFrame) -> ChunkAccumulator:
    """One :meth:`ChunkAccumulator.update` over all of ``frame``'s events.

    Frames are immutable, so the fold is computed once per frame and
    cached beside it; every per-family analyzer in :mod:`repro.core`
    finalizes its family from this one accumulator.
    """
    acc = _FOLDS.get(frame)
    if acc is None:
        acc = ChunkAccumulator()
        acc.update(frame.events)
        _FOLDS[frame] = acc
    return acc


# -- per-family finalizers ---------------------------------------------------
#
# Each finalizer turns the accumulator into one family's result and adds
# that family's ``core.<family>.*`` counters.  finalize_fused calls them
# all for the report; the per-family analyzers call one each over fold().


def _seen_files(acc: ChunkAccumulator) -> np.ndarray:
    """Every file id any event names, ascending."""
    seen, _counts = acc.part("events")
    if len(seen) == 0:
        raise AnalysisError("no file events in trace")
    return seen


def _labels_for(acc: ChunkAccumulator, file_ids: np.ndarray) -> list[str]:
    r = _in_sorted(acc.part("read_files"), file_ids)
    w = _in_sorted(acc.part("written_files"), file_ids)
    return np.where(
        r & w, "rw", np.where(r, "ro", np.where(w, "wo", "untouched"))
    ).tolist()


def finalize_files_per_job(acc: ChunkAccumulator) -> np.ndarray:
    """Table 1's raw counts: distinct files opened by each job that
    opened any, in job order."""
    if acc.n_opens == 0:
        raise AnalysisError("no OPEN events in trace")
    _jobs, per_job = np.unique(
        acc.part("open_pairs") >> np.int64(32), return_counts=True
    )
    return per_job


def finalize_population(acc: ChunkAccumulator, files: FileTable) -> FilePopulation:
    """§4.2's file counts, temporary-file share and byte totals."""
    seen_files = _seen_files(acc)
    read_files = acc.part("read_files")
    written_files = acc.part("written_files")
    read_write = np.intersect1d(read_files, written_files, assume_unique=True)
    n_files = len(seen_files)
    read_only = len(read_files) - len(read_write)
    write_only = len(written_files) - len(read_write)
    untouched = n_files - read_only - write_only - len(read_write)

    table = files.data
    temp_ids = np.unique(table["file"][files.temporary].astype(np.int64))
    open_files, open_counts = acc.part("opens")
    have = _in_sorted(open_files, temp_ids)
    temp_opens = int(
        open_counts[np.searchsorted(open_files, temp_ids[have])].sum()
    )
    if obs.enabled():
        obs.add("core.filestats.files", n_files)
        obs.add("core.filestats.opens", acc.n_opens)
    return FilePopulation(
        n_files=n_files,
        n_opens=acc.n_opens,
        read_only=read_only,
        write_only=write_only,
        read_write=len(read_write),
        untouched=untouched,
        temporary_files=len(temp_ids),
        temporary_open_fraction=temp_opens / acc.n_opens if acc.n_opens else 0.0,
        bytes_read_total=acc.bytes_read,
        bytes_written_total=acc.bytes_written,
    )


def finalize_file_classes(acc: ChunkAccumulator) -> dict[int, str]:
    """file id → "ro" | "wo" | "rw" | "untouched", for every file seen."""
    seen = _seen_files(acc)
    return dict(zip(seen.tolist(), _labels_for(acc, seen)))


def finalize_size_cdf(acc: ChunkAccumulator, files: FileTable) -> EmpiricalCDF:
    """Figure 3: the CDF of accessed files' sizes at close, read from
    the file table."""
    table = files.data
    if len(table) == 0:
        raise AnalysisError("no files in trace")
    _seen_files(acc)  # raises when no event names a file
    touched = np.union1d(acc.part("read_files"), acc.part("written_files"))
    keep = np.isin(table["file"].astype(np.int64), touched)
    sizes = table["final_size"].astype(np.float64)[keep]
    if len(sizes) == 0:
        raise AnalysisError("no accessed files in trace")
    return EmpiricalCDF(sizes)


#: the accumulator's size→count histogram part of each transfer kind
_SIZE_PARTS = {EventKind.READ: "read_sizes", EventKind.WRITE: "write_sizes"}


def finalize_request_summary(
    acc: ChunkAccumulator,
    kind: EventKind = EventKind.READ,
    small_threshold: int = 4000,
) -> RequestSizeSummary:
    """§4.3's headline fractions for one direction, from its size→count
    histogram.

    Request sizes are integers, so every sum here is exact in float64 at
    trace scale (well under 2**53) and equals the sum over the expanded
    sizes; the median falls out of the cumulative counts (for an even
    request count, the mean of the two middle values — exactly
    ``np.median``'s reduction).
    """
    kind = EventKind(kind)
    if kind not in _SIZE_PARTS:
        raise AnalysisError(f"{kind.name} events carry no request size")
    values, counts = acc.part(_SIZE_PARTS[kind])
    if len(values) == 0:
        raise AnalysisError(f"no {kind.name} events in trace")
    kind_name = kind.name.lower()
    n = int(counts.sum())
    if obs.enabled():
        obs.add(f"core.requests.{kind_name}s", n)
    per_value_bytes = values.astype(np.float64) * counts.astype(np.float64)
    total = float(per_value_bytes.sum())
    small = values < small_threshold
    n_small = int(counts[small].sum())
    cum = np.cumsum(counts)
    if n % 2:
        median = float(values[np.searchsorted(cum, n // 2, side="right")])
    else:
        a = np.float64(values[np.searchsorted(cum, n // 2 - 1, side="right")])
        b = np.float64(values[np.searchsorted(cum, n // 2, side="right")])
        median = float((a + b) / 2.0)
    return RequestSizeSummary(
        kind=kind_name,
        n_requests=n,
        total_bytes=int(total),
        small_threshold=small_threshold,
        small_request_fraction=float(np.float64(n_small) / np.float64(n)),
        small_byte_fraction=(
            float(per_value_bytes[small].sum() / total) if total else 0.0
        ),
        mean_size=float(np.float64(total) / np.float64(n)),
        median_size=median,
    )


def finalize_modes(acc: ChunkAccumulator) -> ModeUsage:
    """§4.6: opens per mode, and files per the mode of their first OPEN."""
    if acc.n_opens == 0:
        raise AnalysisError("no OPEN events in trace")
    _files, fm_modes = acc.part("first_mode")
    first_modes, file_mode_counts = np.unique(fm_modes, return_counts=True)
    mode_keys, mode_opens = acc.part("mode_counts")
    if obs.enabled():
        obs.add("core.modes.opens", acc.n_opens)
        obs.add("core.modes.files", int(file_mode_counts.sum()))
    return ModeUsage(
        files_per_mode={
            int(m): int(c)
            for m, c in zip(first_modes.tolist(), file_mode_counts.tolist())
        },
        opens_per_mode={
            int(m): int(c)
            for m, c in zip(mode_keys.tolist(), mode_opens.tolist())
        },
    )


def finalize_regularity(acc: ChunkAccumulator) -> FileRegularity:
    """Figures 5-6: per-file sequential and consecutive fractions, for
    files with a second request from some node."""
    if acc.n_transfers == 0:
        raise AnalysisError("no transfers in trace")
    files, n_trans, n_seq, n_con = acc.part("trans")
    keep = n_trans > 0
    if not keep.any():
        raise AnalysisError("no file has more than one request per node")
    file_ids = files[keep]
    n_trans, n_seq, n_con = n_trans[keep], n_seq[keep], n_con[keep]
    if obs.enabled():
        obs.add("core.sequentiality.files", len(file_ids))
        obs.add("core.sequentiality.transitions", int(n_trans.sum()))
    return FileRegularity(
        file_ids=file_ids,
        n_transitions=n_trans,
        sequential_fraction=n_seq / n_trans,
        consecutive_fraction=n_con / n_trans,
        labels=_labels_for(acc, file_ids),
    )


#: distinct-value family → (its deduplicated (file, value) pair part,
#: the counter its table adds)
_DISTINCT = {
    "intervals": ("interval_pairs", "core.intervals.files"),
    "request_sizes": ("size_pairs", "core.intervals.request_size_files"),
}


def finalize_distinct_counts(acc: ChunkAccumulator, family: str) -> dict[int, int]:
    """file id → distinct interval sizes (``family="intervals"``) or
    request sizes (``"request_sizes"``), zero for every file without."""
    seen = _seen_files(acc)
    pair_files, _values = acc.part(_DISTINCT[family][0])
    # every pair file is a seen file
    per_file = np.bincount(np.searchsorted(seen, pair_files), minlength=len(seen))
    return dict(zip(seen.tolist(), per_file.tolist()))


def finalize_distinct_table(
    acc: ChunkAccumulator, family: str, cap: int = 4
) -> dict[str, int]:
    """Table 2 (``"intervals"``) or Table 3 (``"request_sizes"``): files
    bucketed by distinct-value count, "0" .. f"{cap}+"."""
    table = bucket_counts(finalize_distinct_counts(acc, family).values(), cap=cap)
    if obs.enabled():
        obs.add(_DISTINCT[family][1], sum(table.values()))
    return table


def finalize_zero_interval_dominance(acc: ChunkAccumulator) -> float:
    """Among files with exactly one distinct interval size, the fraction
    whose interval is zero."""
    if acc.n_transfers == 0:
        raise AnalysisError("no transfers in trace")
    pair_files, pair_intervals = acc.part("interval_pairs")
    uniq, n = np.unique(pair_files, return_counts=True)
    one = uniq[n == 1]
    if len(one) == 0:
        raise AnalysisError("no single-interval files in trace")
    single = pair_intervals[np.isin(pair_files, one)]
    return float(np.mean(single == 0))


def finalize_span_files(
    acc: ChunkAccumulator, key: str
) -> tuple[np.ndarray, np.ndarray]:
    """(files opened under two or more keys, files whose windows of
    different keys overlap in time), ``key`` being "node" or "job".

    A key's window on a file runs from its first OPEN to its last CLOSE,
    clamped below by the open time — so a missing CLOSE gives a
    zero-length window at the first OPEN.  Windows sorted by (file, t0,
    t1) overlap exactly where a row starts no later than the previous
    row of its file ends: in a non-overlapping prefix the end times
    strictly increase, so the adjacent test is the classic cummax sweep.
    """
    if acc.n_opens == 0:
        raise AnalysisError("no OPEN events in trace")
    open_keys, t0 = acc.part(f"{key}_open")
    close_keys, close_t1 = acc.part(f"{key}_close")
    t1 = t0.copy()
    if len(close_keys):
        pos = np.searchsorted(open_keys, close_keys)
        ok = pos < len(open_keys)
        ok &= open_keys[np.minimum(pos, len(open_keys) - 1)] == close_keys
        t1[pos[ok]] = close_t1[ok]
    t1 = np.maximum(t0, t1)
    file = open_keys >> np.int64(32)

    starts = _group_starts(file)
    widths = np.diff(np.append(starts, len(file)))
    multi = file[starts][widths >= 2]
    if len(file) < 2:
        return multi, np.empty(0, dtype=np.int64)
    order = np.lexsort((t1, t0, file))
    f = file[order]
    a0, a1 = t0[order], t1[order]
    same = f[1:] == f[:-1]
    hit = same & (a0[1:] <= a1[:-1])
    return multi, np.unique(f[1:][hit]).astype(np.int64)


def _candidate_runs(acc: ChunkAccumulator, candidates: np.ndarray):
    """Canonical byte-run union restricted to the candidate files (sorted
    ascending).  Operates on the raw per-chunk contributions so the
    union's lexsort only ever sees candidate rows — and stays
    byte-identical because the union is one-shot either way."""
    parts = acc._parts["byte_runs"]
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    k = _cat([p[0] for p in parts])
    s = _cat([p[1] for p in parts])
    e_ = _cat([p[2] for p in parts])
    mask = _in_sorted(candidates, k >> np.int64(32))
    return _union_runs(k[mask], s[mask], e_[mask])


def _overlap_fraction(starts: np.ndarray, ends: np.ndarray, nodes: np.ndarray) -> float:
    """Fraction of covered length touched by ≥2 distinct nodes.

    Each (start, end, node) is a half-open interval accessed by a node.
    Per node the intervals are first unioned, so repeated access by the
    *same* node does not count as sharing.
    """
    _nodes, merged_s, merged_e = _union_runs(nodes, starts, ends)
    n_runs = len(merged_s)
    edges = np.concatenate([merged_s, merged_e])
    deltas = np.concatenate(
        [np.ones(n_runs, dtype=np.int64), -np.ones(n_runs, dtype=np.int64)]
    )
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    # process +1 before -1 at equal coordinates so touching intervals from
    # different nodes do not register phantom sharing of zero length
    depth = np.cumsum(deltas[order])
    lengths = np.diff(edges).astype(np.float64)
    d = depth[:-1]
    covered = float(lengths[d >= 1].sum())
    if covered == 0.0:
        return 0.0
    shared = float(lengths[d >= 2].sum())
    return shared / covered


def finalize_sharing(acc: ChunkAccumulator) -> SharingResult:
    """Figure 7: byte- and block-sharing fractions of every accessed file
    whose windows of different nodes overlap."""
    _multi, candidates = finalize_span_files(acc, "node")
    if len(candidates) == 0:
        raise AnalysisError("no concurrently multi-node-opened files in trace")

    # union only the candidates' transfers: the full-trace union is the
    # scan's single most expensive sort, and non-candidate files never
    # contribute to the sharing table
    bk, bs, be = _candidate_runs(acc, candidates)
    # rounding a byte run out to block edges covers exactly what rounding
    # each of its transfers does, so the block runs are the byte runs
    # rounded and re-unioned
    gk, gs, ge = _union_runs(
        bk, (bs // BLOCK_SIZE) * BLOCK_SIZE, -(-be // BLOCK_SIZE) * BLOCK_SIZE
    )
    bfile = bk >> np.int64(32)
    gfile = gk >> np.int64(32)
    b_lo = np.searchsorted(bfile, candidates, side="left")
    b_hi = np.searchsorted(bfile, candidates, side="right")
    g_lo = np.searchsorted(gfile, candidates, side="left")
    g_hi = np.searchsorted(gfile, candidates, side="right")

    file_ids: list[int] = []
    byte_fracs: list[float] = []
    block_fracs: list[float] = []
    for fid, a, b, ga, gb in zip(
        candidates.tolist(), b_lo.tolist(), b_hi.tolist(),
        g_lo.tolist(), g_hi.tolist(),
    ):
        if b <= a:
            continue  # opened by many nodes but never accessed
        keys = bk[a:b]
        n_nodes = 1 + int((keys[1:] != keys[:-1]).sum())
        if n_nodes < 2:
            # concurrently opened by several nodes but accessed by one
            byte_fracs.append(0.0)
            block_fracs.append(0.0)
        else:
            nodes = (keys & _LOW) - _HALF
            byte_fracs.append(_overlap_fraction(bs[a:b], be[a:b], nodes))
            gkeys = gk[ga:gb]
            gnodes = (gkeys & _LOW) - _HALF
            block_fracs.append(_overlap_fraction(gs[ga:gb], ge[ga:gb], gnodes))
        file_ids.append(fid)

    if not file_ids:
        raise AnalysisError("no accessed multi-node files in trace")
    if obs.enabled():
        obs.add("core.sharing.candidate_files", len(candidates))
        obs.add("core.sharing.files", len(file_ids))
    ids = np.asarray(file_ids, dtype=np.int64)
    return SharingResult(
        file_ids=ids,
        byte_shared=np.asarray(byte_fracs),
        block_shared=np.asarray(block_fracs),
        labels=_labels_for(acc, ids),
    )


# -- the back half -----------------------------------------------------------


def finalize_fused(
    acc: ChunkAccumulator, jobs: JobTable, files: FileTable
) -> WorkloadReport:
    """The full §4 report from an accumulator plus the side tables.

    This is the engine's back half, split out so callers that fold
    chunks themselves — most prominently the trace-service daemon, which
    accumulates pushed chunks over HTTP — can finalize *without* a
    :class:`~repro.trace.store.TraceSource`.  The accumulator must cover
    the whole event stream in order; the result is byte-identical to
    ``characterize(source)`` over the same events.
    """
    notes: list[str] = []
    with obs.span("core/characterize_fused/finalize"):
        with obs.span("core/characterize_fused/finalize/basics"):
            basics = {
                "concurrency": concurrency_profile_from_jobs(jobs.data),
                "node_counts": node_count_distribution_from_jobs(jobs.data),
                "files_per_job": files_per_job_from_counts(
                    finalize_files_per_job(acc).tolist()
                ),
                "files": finalize_population(acc, files),
                "size_cdf": finalize_size_cdf(acc, files),
                "reads": finalize_request_summary(acc, EventKind.READ),
                "writes": finalize_request_summary(acc, EventKind.WRITE),
                "modes": finalize_modes(acc),
            }
        with obs.span("core/characterize_fused/finalize/regularity"):
            try:
                regularity = finalize_regularity(acc)
            except AnalysisError as exc:
                regularity = None
                notes.append(f"sequentiality skipped: {exc}")
        with obs.span("core/characterize_fused/finalize/tables"):
            intervals = finalize_distinct_table(acc, "intervals")
            request_sizes = finalize_distinct_table(acc, "request_sizes")
        with obs.span("core/characterize_fused/finalize/sharing"):
            ij_shared, ij_concurrent = finalize_span_files(acc, "job")
            try:
                sharing = finalize_sharing(acc)
            except AnalysisError as exc:
                sharing = None
                notes.append(f"sharing skipped: {exc}")
    if obs.enabled():
        obs.add("core.characterizations")
        obs.add("core.characterize.events", acc.n_events)
    return WorkloadReport(
        regularity=regularity,
        intervals=intervals,
        request_sizes=request_sizes,
        sharing=sharing,
        interjob_shared=len(ij_shared),
        interjob_concurrent=len(ij_concurrent),
        notes=notes,
        **basics,
    )
