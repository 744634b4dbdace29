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


def per_file_regularity(frame: TraceFrame) -> FileRegularity:
    """Compute Figures 5-6's per-file metrics."""
    # imported here: repro.core.streaming imports this module
    from repro.core import streaming

    return streaming.finalize_regularity(streaming.fold(frame))
