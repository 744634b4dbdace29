"""Inter-node file sharing: Figure 7.

A file is *concurrently shared* when opens from different compute nodes
overlap in time.  For each such file the analysis measures what fraction
of its accessed bytes (and of its accessed 4 KB blocks) was touched by
more than one node.  The paper's findings — reads heavily byte-shared,
writes almost never, and read-write files block-shared even when not
byte-shared — are what make I/O-node caching attractive and compute-node
write-caching hazardous.

Open/close windows and file-sorted transfer views come from the shared
trace index; the per-file interval arithmetic here is fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.filestats import file_class_labels
from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.util.units import BLOCK_SIZE


@dataclass(frozen=True)
class SharingResult:
    """Per-file sharing fractions for concurrently multi-node files."""

    file_ids: np.ndarray
    byte_shared: np.ndarray   # fraction of accessed bytes touched by >1 node
    block_shared: np.ndarray  # same at block granularity
    labels: list[str]

    def __len__(self) -> int:
        return len(self.file_ids)

    def select(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(byte_shared, block_shared) arrays for one file class."""
        mask = np.asarray(self.labels) == label
        return self.byte_shared[mask], self.block_shared[mask]


def concurrently_multi_node_files(frame: TraceFrame) -> np.ndarray:
    """File ids opened by ≥2 distinct nodes with overlapping open spans.

    A node's span on a file runs from its first OPEN to its last CLOSE
    (or last event on the file, when a CLOSE is missing from the traced
    period).
    """
    if len(frame.opens) == 0:
        raise AnalysisError("no OPEN events in trace")
    return frame.index.node_spans.concurrent_files()


def interjob_shared_files(frame: TraceFrame) -> tuple[np.ndarray, np.ndarray]:
    """(shared, concurrently_shared) file ids across *jobs*.

    §4.7: "A file is shared if more than one job or process opens it...
    in our traces we saw ... no concurrent file sharing between jobs."
    The first array holds files opened by more than one job at any time;
    the second, those whose openings by different jobs overlapped in
    time.
    """
    if len(frame.opens) == 0:
        raise AnalysisError("no OPEN events in trace")
    spans = frame.index.job_spans
    return spans.multi_window_files(), spans.concurrent_files()


def _merge_per_node(
    starts: np.ndarray, ends: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Union each node's byte intervals; runs come back grouped by node
    (ascending), start-sorted within a node."""
    order = np.lexsort((starts, nodes))
    nd, s, e = nodes[order], starts[order], ends[order]
    new_node = np.ones(len(nd), dtype=bool)
    new_node[1:] = nd[1:] != nd[:-1]
    group = np.cumsum(new_node) - 1
    span = np.int64(int(e.max()) + 1)
    if int(span) * int(group[-1] + 1) >= 2**62:  # pragma: no cover - pathological
        return _merge_per_node_slow(nd, s, e, new_node)
    # exact segmented running max: per-node offsets keep integer cummax
    # from leaking across node boundaries
    off = group * span
    running_max = np.maximum.accumulate(e + off) - off
    is_new = new_node.copy()
    if len(s) > 1:
        is_new[1:] |= s[1:] > running_max[:-1]
    run_starts = np.flatnonzero(is_new)
    return s[run_starts], np.maximum.reduceat(e, run_starts)


def _merge_per_node_slow(nd, s, e, new_node):  # pragma: no cover - pathological
    merged_s: list[int] = []
    merged_e: list[int] = []
    for a, b, fresh in zip(s.tolist(), e.tolist(), new_node.tolist()):
        if not fresh and merged_s and a <= merged_e[-1]:
            merged_e[-1] = max(merged_e[-1], b)
        else:
            merged_s.append(a)
            merged_e.append(b)
    return np.asarray(merged_s, dtype=np.int64), np.asarray(merged_e, dtype=np.int64)


def _overlap_fraction(starts: np.ndarray, ends: np.ndarray, nodes: np.ndarray) -> float:
    """Fraction of covered length touched by ≥2 distinct nodes.

    Each (start, end, node) is a half-open byte interval accessed by a
    node.  Per node the intervals are first unioned, so repeated access by
    the *same* node does not count as sharing.
    """
    merged_s, merged_e = _merge_per_node(starts, ends, nodes)
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


def sharing_per_file(frame: TraceFrame, block_size: int = BLOCK_SIZE) -> SharingResult:
    """Figure 7's per-file byte- and block-sharing fractions."""
    candidates = concurrently_multi_node_files(frame)
    if len(candidates) == 0:
        raise AnalysisError("no concurrently multi-node-opened files in trace")
    idx = frame.index
    tr = idx.transfers_by_file
    labels_all = file_class_labels(frame)

    file_ids = []
    byte_fracs = []
    block_fracs = []
    labels = []
    lo, hi = idx.file_bounds(candidates)
    for fid, a, b in zip(candidates.tolist(), lo.tolist(), hi.tolist()):
        if b <= a:
            continue  # opened by many nodes but never accessed
        chunk = tr[a:b]
        starts = chunk["offset"].astype(np.int64)
        ends = starts + chunk["size"].astype(np.int64)
        keep = ends > starts
        if not keep.any():
            continue
        starts, ends = starts[keep], ends[keep]
        nodes = chunk["node"].astype(np.int64)[keep]
        if len(np.unique(nodes)) < 2:
            # concurrently opened by several nodes but accessed by one
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
    if obs.enabled():
        obs.add("core.sharing.candidate_files", len(candidates))
        obs.add("core.sharing.files", len(file_ids))
    return SharingResult(
        file_ids=np.asarray(file_ids, dtype=np.int64),
        byte_shared=np.asarray(byte_fracs),
        block_shared=np.asarray(block_fracs),
        labels=labels,
    )
