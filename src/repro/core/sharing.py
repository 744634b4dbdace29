"""Inter-node file sharing: Figure 7.

A file is *concurrently shared* when opens from different compute nodes
overlap in time.  For each such file the analysis measures what fraction
of its accessed bytes (and of its accessed 4 KB blocks) was touched by
more than one node.  The paper's findings — reads heavily byte-shared,
writes almost never, and read-write files block-shared even when not
byte-shared — are what make I/O-node caching attractive and compute-node
write-caching hazardous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    A node's span on a file runs from its first OPEN to its last CLOSE.
    When the node never closes the file within the traced period, its
    span is clamped to the first OPEN — a zero-length window, however
    late the node's last event on the file.
    """
    # imported here: repro.core.streaming imports this module
    from repro.core import streaming

    return streaming.finalize_span_files(streaming.fold(frame), "node")[1]


def interjob_shared_files(frame: TraceFrame) -> tuple[np.ndarray, np.ndarray]:
    """(shared, concurrently_shared) file ids across *jobs*.

    §4.7: "A file is shared if more than one job or process opens it...
    in our traces we saw ... no concurrent file sharing between jobs."
    The first array holds files opened by more than one job at any time;
    the second, those whose openings by different jobs overlapped in
    time.
    """
    from repro.core import streaming

    return streaming.finalize_span_files(streaming.fold(frame), "job")


def sharing_per_file(frame: TraceFrame, block_size: int = BLOCK_SIZE) -> SharingResult:
    """Figure 7's per-file byte- and block-sharing fractions."""
    from repro.core import streaming

    return streaming.finalize_sharing(streaming.fold(frame), block_size)
