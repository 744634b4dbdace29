"""Compute-node cache simulation: Figure 8.

Each compute node gets a small cache of one-block (4 KB) read-only
buffers with LRU replacement.  A *hit* is a read request fully satisfied
from the local buffers — no message to any I/O node.  Write-buffering at
compute nodes would demand a consistency protocol (the block sharing in
write-only and read-write files shows why), so, like the paper, the
simulation restricts itself to read-only files.

The paper's findings this reproduces:

- per-job hit rates clump at ~0 %, mid-range, and >75 % (the cache
  either fits the access pattern or it does not);
- one buffer is almost as good as fifty — the locality is *spatial*
  (small sequential requests within a block), not temporal;
- the few jobs where more buffers help are those interleaving reads
  from several files at once.

This module holds the result type and the read-only file set; the
simulation is :func:`repro.caching.stackdist.compute_node_stack_profile`,
one LRU stack-distance pass that scores every buffer count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.frame import TraceFrame
from repro.util.cdf import EmpiricalCDF


@dataclass(frozen=True)
class ComputeNodeCacheResult:
    """Per-job hit rates for one buffer-count setting."""

    buffers: int
    job_ids: np.ndarray
    job_hit_rates: np.ndarray
    job_request_counts: np.ndarray
    total_hits: int
    total_requests: int

    @property
    def overall_hit_rate(self) -> float:
        """Hit rate across all read-only reads."""
        return self.total_hits / self.total_requests if self.total_requests else 0.0

    def cdf(self) -> EmpiricalCDF:
        """Figure 8: CDF over jobs of per-job hit rate (percent)."""
        return EmpiricalCDF(self.job_hit_rates * 100.0)

    def fraction_above(self, threshold: float) -> float:
        """Fraction of jobs with hit rate above ``threshold``
        (paper: 40 % of jobs above 0.75)."""
        if len(self.job_hit_rates) == 0:
            return 0.0
        return float(np.mean(self.job_hit_rates > threshold))

    def fraction_zero(self) -> float:
        """Fraction of jobs with a 0 % hit rate (paper: 30 %)."""
        if len(self.job_hit_rates) == 0:
            return 0.0
        return float(np.mean(self.job_hit_rates == 0.0))


def read_only_file_ids(frame: TraceFrame) -> np.ndarray:
    """Files that were read and never written in the trace."""
    read_files = np.unique(frame.reads["file"])
    written = np.unique(frame.writes["file"])
    return read_files[~np.isin(read_files, written)].astype(np.int64)
