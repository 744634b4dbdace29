"""Access regularity: Tables 2 and 3.

The *interval* of a request is the number of bytes skipped since the end
of the previous request from the same node (0 for consecutive access).
Table 2 buckets files by how many distinct interval sizes they exhibit
across all accessing nodes; Table 3 does the same for distinct request
sizes.  The paper's conclusion — over 90 % of files use at most two
request sizes and at most one interval size — is what motivates its
strided-interface recommendation.
"""

from __future__ import annotations

from repro.core.streaming import (
    finalize_distinct_counts,
    finalize_distinct_table,
    finalize_zero_interval_dominance,
    fold,
)
from repro.trace.frame import TraceFrame


def per_file_distinct_intervals(frame: TraceFrame) -> dict[int, int]:
    """Map file id → number of distinct interval sizes (Table 2).

    Files with at most one access per node have no intervals and map to
    zero; so do opened-but-untouched files.
    """
    return finalize_distinct_counts(fold(frame), "intervals")


def per_file_distinct_request_sizes(frame: TraceFrame) -> dict[int, int]:
    """Map file id → number of distinct request sizes (Table 3).

    Untouched files (opened and closed without access) map to zero — the
    paper's explicit 0 bucket.
    """
    return finalize_distinct_counts(fold(frame), "request_sizes")


def interval_size_table(frame: TraceFrame, cap: int = 4) -> dict[str, int]:
    """Table 2: files bucketed by distinct interval-size count
    (buckets "0", "1", ..., "<cap>+")."""
    return finalize_distinct_table(fold(frame), "intervals", cap)


def request_size_table(frame: TraceFrame, cap: int = 4) -> dict[str, int]:
    """Table 3: files bucketed by distinct request-size count."""
    return finalize_distinct_table(fold(frame), "request_sizes", cap)


def zero_interval_dominance(frame: TraceFrame) -> float:
    """Among files with exactly one distinct interval size, the fraction
    whose single interval is zero (the paper: over 99 % — i.e. regular
    access is overwhelmingly *consecutive* access)."""
    return finalize_zero_interval_dominance(fold(frame))
