"""File-population characterization: §4.2 and Figure 3.

Classifies every file that appears in the trace by how it was actually
used — read-only, write-only, read-write, or opened-but-untouched — and
measures sizes at close, bytes moved per file, and temporary files
(deleted by the job that created them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.util.cdf import EmpiricalCDF


@dataclass(frozen=True)
class FilePopulation:
    """§4.2's file counts and per-file byte averages."""

    n_files: int
    n_opens: int
    read_only: int
    write_only: int
    read_write: int
    untouched: int
    temporary_files: int
    temporary_open_fraction: float
    bytes_read_total: int
    bytes_written_total: int

    @property
    def mean_bytes_read_per_reading_file(self) -> float:
        """Average bytes read per file that was read (paper: 3.3 MB)."""
        readers = self.read_only + self.read_write
        return self.bytes_read_total / readers if readers else 0.0

    @property
    def mean_bytes_written_per_writing_file(self) -> float:
        """Average bytes written per file that was written (paper: 1.2 MB)."""
        writers = self.write_only + self.read_write
        return self.bytes_written_total / writers if writers else 0.0

    @property
    def write_to_read_ratio(self) -> float:
        """Write-only : read-only file count ratio (paper: ~3.1)."""
        return self.write_only / self.read_only if self.read_only else float("inf")

    def fractions(self) -> dict[str, float]:
        """Population fractions by class."""
        n = max(self.n_files, 1)
        return {
            "read_only": self.read_only / n,
            "write_only": self.write_only / n,
            "read_write": self.read_write / n,
            "untouched": self.untouched / n,
        }


def population(frame: TraceFrame) -> FilePopulation:
    """Compute the §4.2 file-population summary."""
    # imported here: repro.core.streaming imports this module
    from repro.core import streaming

    return streaming.finalize_population(streaming.fold(frame), frame.files)


def file_size_cdf(frame: TraceFrame, include_untouched: bool = False) -> EmpiricalCDF:
    """Figure 3: CDF of file sizes at close.

    Sizes come from the file table (the larger of the pre-existing size
    and the highest byte written).  Untouched files are excluded by
    default — they close at whatever size they were opened at, usually
    zero, and the paper's CDF starts at ~10 bytes.
    """
    if include_untouched:
        ft = frame.files.data
        if len(ft) == 0:
            raise AnalysisError("no files in trace")
        return EmpiricalCDF(ft["final_size"].astype(np.float64))
    from repro.core import streaming

    return streaming.finalize_size_cdf(streaming.fold(frame), frame.files)


def file_class_labels(frame: TraceFrame) -> dict[int, str]:
    """Map file id → "ro" | "wo" | "rw" | "untouched".

    The sequentiality and sharing analyses split their CDFs by these
    file classes.
    """
    from repro.core import streaming

    return streaming.finalize_file_classes(streaming.fold(frame))
