"""Sequential and consecutive access: Figures 5 and 6.

Definitions (per the paper, §4.4): a request is *sequential* if it is at
a higher file offset than the previous request from the same compute
node, and *consecutive* if it begins exactly where that previous request
ended.  Each file's sequential/consecutive percentage pools those
per-node transitions across all nodes that accessed it; only files with
more than one request (from at least one node) appear in the CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.filestats import file_class_labels
from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame


@dataclass(frozen=True)
class FileRegularity:
    """Per-file sequentiality metrics (files with >1 request only)."""

    file_ids: np.ndarray
    n_transitions: np.ndarray
    sequential_fraction: np.ndarray
    consecutive_fraction: np.ndarray
    labels: list[str]  # "ro" | "wo" | "rw" per file

    def __len__(self) -> int:
        return len(self.file_ids)

    def select(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(sequential, consecutive) fraction arrays for one file class."""
        mask = np.asarray(self.labels) == label
        return self.sequential_fraction[mask], self.consecutive_fraction[mask]

    def fully_sequential_fraction(self, label: str) -> float:
        """Fraction of this class's files that are 100 % sequential."""
        seq, _ = self.select(label)
        if len(seq) == 0:
            return 0.0
        return float(np.mean(seq >= 1.0))

    def fully_consecutive_fraction(self, label: str) -> float:
        """Fraction of this class's files that are 100 % consecutive
        (paper: 86 % of write-only, 29 % of read-only)."""
        _, con = self.select(label)
        if len(con) == 0:
            return 0.0
        return float(np.mean(con >= 1.0))


def _grouped_transitions(frame: TraceFrame):
    """Transfers sorted by (file, node) with time order inside groups.

    Returns the sorted transfer array plus a boolean mask of rows that are
    *transitions* (previous row exists in the same (file, node) group).
    Both come from the shared trace index, sorted once per frame.
    """
    if len(frame.transfers) == 0:
        raise AnalysisError("no transfers in trace")
    return frame.index.transfers_by_file_node


def per_file_regularity(frame: TraceFrame) -> FileRegularity:
    """Compute Figures 5-6's per-file metrics."""
    tr, same = _grouped_transitions(frame)
    prev_off = np.empty(len(tr), dtype=np.int64)
    prev_end = np.empty(len(tr), dtype=np.int64)
    prev_off[1:] = tr["offset"][:-1]
    prev_end[1:] = tr["offset"][:-1] + tr["size"][:-1]

    seq = same & (tr["offset"] > prev_off)
    con = same & (tr["offset"] == prev_end)

    # the index view is already file-sorted, so per-file sums are
    # contiguous-segment reductions instead of scattered np.add.at
    files = tr["file"].astype(np.int64)
    new = np.ones(len(files), dtype=bool)
    new[1:] = files[1:] != files[:-1]
    starts = np.flatnonzero(new)
    uniq = files[starts]
    n_trans = np.add.reduceat(same.astype(np.int64), starts)
    n_seq = np.add.reduceat(seq.astype(np.int64), starts)
    n_con = np.add.reduceat(con.astype(np.int64), starts)

    keep = n_trans > 0
    uniq, n_trans, n_seq, n_con = uniq[keep], n_trans[keep], n_seq[keep], n_con[keep]
    if len(uniq) == 0:
        raise AnalysisError("no file has more than one request per node")
    labels_all = file_class_labels(frame)
    labels = [labels_all[int(f)] for f in uniq]
    if obs.enabled():
        obs.add("core.sequentiality.files", len(uniq))
        obs.add("core.sequentiality.transitions", int(n_trans.sum()))
    return FileRegularity(
        file_ids=uniq,
        n_transitions=n_trans,
        sequential_fraction=n_seq / n_trans,
        consecutive_fraction=n_con / n_trans,
        labels=labels,
    )
