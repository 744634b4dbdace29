"""The characterization oracle: the analyzers as they stood before any
shared index or fused engine.

Every analyzer here re-masks, re-sorts and re-groups the event table on
its own, and several hot paths are per-record Python loops.  Nothing in
``src/`` imports it.  It has two users:

- the equivalence suite (``tests/test_equivalence.py``) checks that
  :func:`repro.core.report.characterize` renders the same report text
  and JSON as :func:`characterize_legacy`, and that each per-family
  analyzer in :mod:`repro.core` returns what its copy here returns;
- ``benchmarks/bench_perf_characterize.py`` times
  :func:`characterize_legacy` as the serial baseline its speedups are
  measured against.

The oracle keeps its own copy of every number it computes, the raw-size
:func:`request_size_summary` included, so a comparison never checks the
engine against itself.  Only the result dataclasses and the Figure 1
profile (a plain reduction over the job table) come from
:mod:`repro.core`.
"""

from __future__ import annotations

import numpy as np

from repro.core.jobstats import ConcurrencyProfile, concurrency_profile
from repro.core.filestats import FilePopulation
from repro.core.jobstats import NodeCountDistribution
from repro.core.modes import ModeUsage
from repro.core.requests import RequestSizeSummary
from repro.core.report import WorkloadReport
from repro.core.sequentiality import FileRegularity
from repro.core.sharing import SharingResult
from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.trace.records import NO_VALUE, EventKind
from repro.util.cdf import EmpiricalCDF
from repro.util.histogram import bucket_counts
from repro.util.units import BLOCK_SIZE

# -- requests ---------------------------------------------------------------


def request_size_summary(
    frame: TraceFrame,
    kind: EventKind = EventKind.READ,
    small_threshold: int = 4000,
) -> RequestSizeSummary:
    """The §4.3 headline fractions for one direction, from the raw sizes."""
    ev = frame.of_kind(kind)
    if len(ev) == 0:
        raise AnalysisError(f"no {kind.name} events in trace")
    sizes = ev["size"].astype(np.float64)
    total = float(sizes.sum())
    small = sizes < small_threshold
    return RequestSizeSummary(
        kind=kind.name.lower(),
        n_requests=len(sizes),
        total_bytes=int(total),
        small_threshold=small_threshold,
        small_request_fraction=float(small.mean()),
        small_byte_fraction=float(sizes[small].sum() / total) if total else 0.0,
        mean_size=float(sizes.mean()),
        median_size=float(np.median(sizes)),
    )


# -- jobstats ---------------------------------------------------------------


def node_count_distribution(frame: TraceFrame) -> NodeCountDistribution:
    """Figure 2, pre-index: one masked pass per distinct node count."""
    jobs = frame.jobs.data
    if len(jobs) == 0:
        raise AnalysisError("no jobs in trace")
    counts = np.unique(jobs["nodes"])
    n_jobs = np.array([(jobs["nodes"] == c).sum() for c in counts], dtype=np.int64)
    node_seconds = np.array(
        [
            float((jobs["nodes"][jobs["nodes"] == c] * (jobs["end"] - jobs["start"])[jobs["nodes"] == c]).sum())
            for c in counts
        ]
    )
    return NodeCountDistribution(
        node_counts=counts.astype(np.int64), n_jobs=n_jobs, node_seconds=node_seconds
    )


def files_per_job_table(frame: TraceFrame, cap: int = 5) -> dict[str, int]:
    """Table 1, pre-index: ``np.unique(axis=0)`` over stacked pairs."""
    opens = frame.opens
    if len(opens) == 0:
        raise AnalysisError("no OPEN events in trace")
    pairs = np.unique(
        np.stack([opens["job"].astype(np.int64), opens["file"].astype(np.int64)], axis=1),
        axis=0,
    )
    jobs, counts = np.unique(pairs[:, 0], return_counts=True)
    table = bucket_counts(counts.tolist(), cap=cap)
    table.pop("0", None)
    return table


def max_files_one_job(frame: TraceFrame) -> int:
    """Largest distinct-file count of any job, pre-index."""
    opens = frame.opens
    if len(opens) == 0:
        raise AnalysisError("no OPEN events in trace")
    pairs = np.unique(
        np.stack([opens["job"].astype(np.int64), opens["file"].astype(np.int64)], axis=1),
        axis=0,
    )
    _, counts = np.unique(pairs[:, 0], return_counts=True)
    return int(counts.max())


# -- filestats --------------------------------------------------------------


def _file_classes(frame: TraceFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(file_ids, was_read, was_written, opened), recomputed from scratch."""
    ev = frame.events
    file_ids = np.unique(ev["file"][ev["file"] != NO_VALUE]).astype(np.int64)
    if len(file_ids) == 0:
        raise AnalysisError("no file events in trace")
    reads = np.unique(frame.reads["file"]).astype(np.int64)
    writes = np.unique(frame.writes["file"]).astype(np.int64)
    was_read = np.isin(file_ids, reads)
    was_written = np.isin(file_ids, writes)
    opened = np.isin(file_ids, np.unique(frame.opens["file"]).astype(np.int64))
    return file_ids, was_read, was_written, opened


def population(frame: TraceFrame) -> FilePopulation:
    """§4.2 file-population summary, pre-index."""
    file_ids, was_read, was_written, _ = _file_classes(frame)
    read_only = int((was_read & ~was_written).sum())
    write_only = int((~was_read & was_written).sum())
    read_write = int((was_read & was_written).sum())
    untouched = int((~was_read & ~was_written).sum())

    ft = frame.files.data
    temp_mask = frame.files.temporary
    temp_ids = set(ft["file"][temp_mask].tolist())
    opens = frame.opens
    n_opens = len(opens)
    temp_opens = int(np.isin(opens["file"].astype(np.int64), list(temp_ids)).sum()) if temp_ids else 0

    return FilePopulation(
        n_files=len(file_ids),
        n_opens=n_opens,
        read_only=read_only,
        write_only=write_only,
        read_write=read_write,
        untouched=untouched,
        temporary_files=len(temp_ids),
        temporary_open_fraction=temp_opens / n_opens if n_opens else 0.0,
        bytes_read_total=int(frame.reads["size"].sum()),
        bytes_written_total=int(frame.writes["size"].sum()),
    )


def file_size_cdf(frame: TraceFrame, include_untouched: bool = False) -> EmpiricalCDF:
    """Figure 3 CDF, pre-index."""
    ft = frame.files.data
    if len(ft) == 0:
        raise AnalysisError("no files in trace")
    sizes = ft["final_size"].astype(np.float64)
    if not include_untouched:
        _, was_read, was_written, _ = _file_classes(frame)
        file_ids = np.unique(
            frame.events["file"][frame.events["file"] != NO_VALUE]
        ).astype(np.int64)
        touched_ids = file_ids[was_read | was_written]
        keep = np.isin(ft["file"].astype(np.int64), touched_ids)
        sizes = sizes[keep]
    if len(sizes) == 0:
        raise AnalysisError("no accessed files in trace")
    return EmpiricalCDF(sizes)


def file_class_labels(frame: TraceFrame) -> dict[int, str]:
    """file id → class label, rebuilt with a Python loop."""
    file_ids, was_read, was_written, _ = _file_classes(frame)
    labels = {}
    for fid, r, w in zip(file_ids.tolist(), was_read.tolist(), was_written.tolist()):
        if r and w:
            labels[fid] = "rw"
        elif r:
            labels[fid] = "ro"
        elif w:
            labels[fid] = "wo"
        else:
            labels[fid] = "untouched"
    return labels


# -- sequentiality ----------------------------------------------------------


def _grouped_transitions(frame: TraceFrame):
    """(file, node)-sorted transfers plus transition mask, re-sorted here."""
    tr = frame.transfers
    if len(tr) == 0:
        raise AnalysisError("no transfers in trace")
    order = np.lexsort((tr["node"], tr["file"]))
    tr = tr[order]
    same_group = np.zeros(len(tr), dtype=bool)
    if len(tr) > 1:
        same_group[1:] = (tr["file"][1:] == tr["file"][:-1]) & (
            tr["node"][1:] == tr["node"][:-1]
        )
    return tr, same_group


def per_file_regularity(frame: TraceFrame) -> FileRegularity:
    """Figures 5-6 per-file metrics, pre-index (``np.add.at`` kernels)."""
    tr, same = _grouped_transitions(frame)
    prev_off = np.empty(len(tr), dtype=np.int64)
    prev_end = np.empty(len(tr), dtype=np.int64)
    prev_off[1:] = tr["offset"][:-1]
    prev_end[1:] = tr["offset"][:-1] + tr["size"][:-1]

    seq = same & (tr["offset"] > prev_off)
    con = same & (tr["offset"] == prev_end)

    files = tr["file"].astype(np.int64)
    uniq, inv = np.unique(files, return_inverse=True)
    n_trans = np.zeros(len(uniq), dtype=np.int64)
    n_seq = np.zeros(len(uniq), dtype=np.int64)
    n_con = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(n_trans, inv, same.astype(np.int64))
    np.add.at(n_seq, inv, seq.astype(np.int64))
    np.add.at(n_con, inv, con.astype(np.int64))

    keep = n_trans > 0
    uniq, n_trans, n_seq, n_con = uniq[keep], n_trans[keep], n_seq[keep], n_con[keep]
    if len(uniq) == 0:
        raise AnalysisError("no file has more than one request per node")
    labels_all = file_class_labels(frame)
    labels = [labels_all[int(f)] for f in uniq]
    return FileRegularity(
        file_ids=uniq,
        n_transitions=n_trans,
        sequential_fraction=n_seq / n_trans,
        consecutive_fraction=n_con / n_trans,
        labels=labels,
    )


# -- intervals --------------------------------------------------------------


def per_file_distinct_intervals(frame: TraceFrame) -> dict[int, int]:
    """Table 2 counts, pre-index (``np.unique(axis=0)`` over pairs)."""
    ev = frame.events
    all_files = np.unique(ev["file"][ev["file"] != NO_VALUE]).astype(np.int64)
    if len(all_files) == 0:
        raise AnalysisError("no file events in trace")
    counts = {int(f): 0 for f in all_files}
    try:
        tr, same = _grouped_transitions(frame)
    except AnalysisError:
        return counts
    if same.any():
        prev_end = np.zeros(len(tr), dtype=np.int64)
        prev_end[1:] = tr["offset"][:-1] + tr["size"][:-1]
        intervals = (tr["offset"] - prev_end)[same]
        files = tr["file"].astype(np.int64)[same]
        pairs = np.unique(np.stack([files, intervals], axis=1), axis=0)
        uniq, n = np.unique(pairs[:, 0], return_counts=True)
        for f, c in zip(uniq.tolist(), n.tolist()):
            counts[int(f)] = int(c)
    return counts


def per_file_distinct_request_sizes(frame: TraceFrame) -> dict[int, int]:
    """Table 3 counts, pre-index."""
    ev = frame.events
    all_files = np.unique(ev["file"][ev["file"] != NO_VALUE]).astype(np.int64)
    if len(all_files) == 0:
        raise AnalysisError("no file events in trace")
    counts = {int(f): 0 for f in all_files}
    tr = frame.transfers
    if len(tr):
        pairs = np.unique(
            np.stack([tr["file"].astype(np.int64), tr["size"].astype(np.int64)], axis=1),
            axis=0,
        )
        uniq, n = np.unique(pairs[:, 0], return_counts=True)
        for f, c in zip(uniq.tolist(), n.tolist()):
            counts[int(f)] = int(c)
    return counts


def interval_size_table(frame: TraceFrame, cap: int = 4) -> dict[str, int]:
    """Table 2, pre-index."""
    return bucket_counts(per_file_distinct_intervals(frame).values(), cap=cap)


def request_size_table(frame: TraceFrame, cap: int = 4) -> dict[str, int]:
    """Table 3, pre-index."""
    return bucket_counts(per_file_distinct_request_sizes(frame).values(), cap=cap)


# -- sharing ----------------------------------------------------------------


def concurrently_multi_node_files(frame: TraceFrame) -> np.ndarray:
    """Figure 7 candidates, pre-index (span dicts + Python sweep)."""
    opens = frame.opens
    closes = frame.closes
    if len(opens) == 0:
        raise AnalysisError("no OPEN events in trace")

    def spans(ev, reducer):
        keys = np.stack([ev["file"].astype(np.int64), ev["node"].astype(np.int64)], axis=1)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        agg = np.full(len(uniq), -np.inf if reducer is np.maximum else np.inf)
        ufunc = reducer
        ufunc.at(agg, inv, ev["time"])
        return {tuple(k): float(v) for k, v in zip(map(tuple, uniq.tolist()), agg.tolist())}

    first_open = spans(opens, np.minimum)
    last_close = spans(closes, np.maximum) if len(closes) else {}

    by_file: dict[int, list[tuple[float, float]]] = {}
    for (fid, node), t0 in first_open.items():
        t1 = last_close.get((fid, node), t0)
        by_file.setdefault(int(fid), []).append((t0, max(t0, t1)))

    shared = []
    for fid, windows in by_file.items():
        if len(windows) < 2:
            continue
        windows.sort()
        max_end = windows[0][1]
        for t0, t1 in windows[1:]:
            if t0 <= max_end:
                shared.append(fid)
                break
            max_end = max(max_end, t1)
    return np.asarray(sorted(shared), dtype=np.int64)


def interjob_shared_files(frame: TraceFrame) -> tuple[np.ndarray, np.ndarray]:
    """§4.7 interjob sharing, pre-index (per-row Python loops)."""
    opens = frame.opens
    closes = frame.closes
    if len(opens) == 0:
        raise AnalysisError("no OPEN events in trace")

    first_open: dict[tuple[int, int], float] = {}
    for row in opens:
        key = (int(row["file"]), int(row["job"]))
        t = float(row["time"])
        if key not in first_open or t < first_open[key]:
            first_open[key] = t
    last_close: dict[tuple[int, int], float] = {}
    for row in closes:
        key = (int(row["file"]), int(row["job"]))
        t = float(row["time"])
        if key not in last_close or t > last_close[key]:
            last_close[key] = t

    by_file: dict[int, list[tuple[float, float]]] = {}
    for (fid, job), t0 in first_open.items():
        t1 = max(t0, last_close.get((fid, job), t0))
        by_file.setdefault(fid, []).append((t0, t1))

    shared = []
    concurrent = []
    for fid, windows in by_file.items():
        if len(windows) < 2:
            continue
        shared.append(fid)
        windows.sort()
        max_end = windows[0][1]
        for t0, t1 in windows[1:]:
            if t0 <= max_end:
                concurrent.append(fid)
                break
            max_end = max(max_end, t1)
    return (
        np.asarray(sorted(shared), dtype=np.int64),
        np.asarray(sorted(concurrent), dtype=np.int64),
    )


def _overlap_fraction(starts: np.ndarray, ends: np.ndarray, nodes: np.ndarray) -> float:
    """Shared-coverage fraction with the per-interval Python merge loop."""
    pieces = []
    for node in np.unique(nodes):
        m = nodes == node
        s = starts[m]
        e = ends[m]
        order = np.argsort(s, kind="stable")
        s, e = s[order], e[order]
        merged_s = [int(s[0])]
        merged_e = [int(e[0])]
        for a, b in zip(s[1:].tolist(), e[1:].tolist()):
            if a <= merged_e[-1]:
                merged_e[-1] = max(merged_e[-1], b)
            else:
                merged_s.append(a)
                merged_e.append(b)
        pieces.append((np.asarray(merged_s), np.asarray(merged_e)))

    edges = np.concatenate([p[0] for p in pieces] + [p[1] for p in pieces])
    deltas = np.concatenate(
        [np.ones(sum(len(p[0]) for p in pieces), dtype=np.int64),
         -np.ones(sum(len(p[1]) for p in pieces), dtype=np.int64)]
    )
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    depth = np.cumsum(deltas[order])
    lengths = np.diff(edges).astype(np.float64)
    d = depth[:-1]
    covered = float(lengths[d >= 1].sum())
    if covered == 0.0:
        return 0.0
    shared = float(lengths[d >= 2].sum())
    return shared / covered


def sharing_per_file(frame: TraceFrame, block_size: int = BLOCK_SIZE) -> SharingResult:
    """Figure 7 sharing fractions, pre-index (re-sorts the transfers)."""
    candidates = concurrently_multi_node_files(frame)
    if len(candidates) == 0:
        raise AnalysisError("no concurrently multi-node-opened files in trace")
    tr = frame.transfers
    order = np.argsort(tr["file"], kind="stable")
    tr = tr[order]
    labels_all = file_class_labels(frame)

    file_ids = []
    byte_fracs = []
    block_fracs = []
    labels = []
    lo = np.searchsorted(tr["file"], candidates, side="left")
    hi = np.searchsorted(tr["file"], candidates, side="right")
    for fid, a, b in zip(candidates.tolist(), lo.tolist(), hi.tolist()):
        if b <= a:
            continue
        chunk = tr[a:b]
        starts = chunk["offset"].astype(np.int64)
        ends = starts + chunk["size"].astype(np.int64)
        keep = ends > starts
        if not keep.any():
            continue
        starts, ends = starts[keep], ends[keep]
        nodes = chunk["node"].astype(np.int64)[keep]
        if len(np.unique(nodes)) < 2:
            byte_fracs.append(0.0)
            block_fracs.append(0.0)
        else:
            byte_fracs.append(_overlap_fraction(starts, ends, nodes))
            blk_s = (starts // block_size) * block_size
            blk_e = -(-ends // block_size) * block_size
            block_fracs.append(_overlap_fraction(blk_s, blk_e, nodes))
        file_ids.append(fid)
        labels.append(labels_all[fid])

    if not file_ids:
        raise AnalysisError("no accessed multi-node files in trace")
    return SharingResult(
        file_ids=np.asarray(file_ids, dtype=np.int64),
        byte_shared=np.asarray(byte_fracs),
        block_shared=np.asarray(block_fracs),
        labels=labels,
    )


# -- modes ------------------------------------------------------------------


def mode_usage(frame: TraceFrame) -> ModeUsage:
    """§4.6 mode usage, pre-index (per-row setdefault loop)."""
    opens = frame.opens
    if len(opens) == 0:
        raise AnalysisError("no OPEN events in trace")
    opens_per_mode: dict[int, int] = {}
    modes = opens["mode"].astype(int)
    for m in np.unique(modes):
        opens_per_mode[int(m)] = int((modes == m).sum())

    first_mode: dict[int, int] = {}
    for fid, m in zip(opens["file"].tolist(), modes.tolist()):
        first_mode.setdefault(int(fid), int(m))
    files_per_mode: dict[int, int] = {}
    for m in first_mode.values():
        files_per_mode[m] = files_per_mode.get(m, 0) + 1
    return ModeUsage(files_per_mode=files_per_mode, opens_per_mode=opens_per_mode)


# -- the whole report -------------------------------------------------------


def characterize_legacy(frame: TraceFrame) -> WorkloadReport:
    """Run the full §4 characterization along the pre-index path."""
    notes = []
    try:
        regularity = per_file_regularity(frame)
    except AnalysisError as exc:
        regularity = None
        notes.append(f"sequentiality skipped: {exc}")
    try:
        sharing = sharing_per_file(frame)
    except AnalysisError as exc:
        sharing = None
        notes.append(f"sharing skipped: {exc}")
    try:
        shared, concurrent = interjob_shared_files(frame)
        interjob = (len(shared), len(concurrent))
    except AnalysisError:
        interjob = (0, 0)
    return WorkloadReport(
        concurrency=concurrency_profile(frame),
        node_counts=node_count_distribution(frame),
        files_per_job=files_per_job_table(frame),
        files=population(frame),
        size_cdf=file_size_cdf(frame),
        reads=request_size_summary(frame, EventKind.READ),
        writes=request_size_summary(frame, EventKind.WRITE),
        regularity=regularity,
        intervals=interval_size_table(frame),
        request_sizes=request_size_table(frame),
        sharing=sharing,
        modes=mode_usage(frame),
        interjob_shared=interjob[0],
        interjob_concurrent=interjob[1],
        notes=notes,
    )


__all__ = [
    "characterize_legacy",
    "concurrently_multi_node_files",
    "file_class_labels",
    "file_size_cdf",
    "files_per_job_table",
    "interjob_shared_files",
    "interval_size_table",
    "max_files_one_job",
    "mode_usage",
    "node_count_distribution",
    "per_file_distinct_intervals",
    "per_file_distinct_request_sizes",
    "per_file_regularity",
    "population",
    "request_size_summary",
    "request_size_table",
    "sharing_per_file",
]
