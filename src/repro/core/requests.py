"""I/O request-size characterization: Figure 4.

Two CDFs per transfer direction: the fraction of *requests* at or below
each size, and the fraction of *data transferred* by requests at or below
each size.  The gap between them is the paper's headline observation —
96.1 % of reads were under 4000 bytes yet moved only 2.0 % of the data
(89.4 % / 3 % for writes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind
from repro.util.cdf import EmpiricalCDF


@dataclass(frozen=True)
class RequestSizeSummary:
    """Headline numbers for one direction (read or write)."""

    kind: str
    n_requests: int
    total_bytes: int
    small_threshold: int
    small_request_fraction: float
    small_byte_fraction: float
    mean_size: float
    median_size: float

    def describe(self) -> str:
        """One sentence in the paper's phrasing."""
        return (
            f"{self.small_request_fraction:.1%} of {self.kind}s were for fewer "
            f"than {self.small_threshold} bytes, but those {self.kind}s "
            f"transferred only {self.small_byte_fraction:.1%} of all data "
            f"{self.kind} "
        ).rstrip()


def _transfer_sizes(frame: TraceFrame, kind: EventKind) -> np.ndarray:
    # of_kind views are cached on the frame, so this scan is shared with
    # every other analyzer asking for the same kinds
    ev = frame.of_kind(kind)
    if len(ev) == 0:
        raise AnalysisError(f"no {kind.name} events in trace")
    return ev["size"].astype(np.float64)


def request_size_cdfs(
    frame: TraceFrame, kind: EventKind = EventKind.READ
) -> tuple[EmpiricalCDF, EmpiricalCDF]:
    """Figure 4's two curves: (count-weighted, byte-weighted) size CDFs."""
    sizes = _transfer_sizes(frame, kind)
    by_count = EmpiricalCDF(sizes)
    by_bytes = EmpiricalCDF(sizes, weights=sizes)
    return by_count, by_bytes


def request_size_summary(
    frame: TraceFrame,
    kind: EventKind = EventKind.READ,
    small_threshold: int = 4000,
) -> RequestSizeSummary:
    """The §4.3 headline fractions for one direction."""
    # imported here: repro.core.streaming imports this module
    from repro.core import streaming

    return streaming.finalize_request_summary(
        streaming.fold(frame), kind, small_threshold
    )


def size_spikes(
    frame: TraceFrame,
    kind: EventKind = EventKind.READ,
    weight_by_bytes: bool = False,
    top: int = 5,
) -> list[tuple[int, float]]:
    """The most popular exact request sizes and their weight share.

    With ``weight_by_bytes`` this surfaces byte-carrying spikes like the
    paper's 1 MB reads (contributed by roughly one job); without, count
    spikes like the 4 KB block-size peak.
    """
    sizes = _transfer_sizes(frame, kind).astype(np.int64)
    values, counts = np.unique(sizes, return_counts=True)
    if weight_by_bytes:
        weight = values.astype(np.float64) * counts
    else:
        weight = counts.astype(np.float64)
    total = weight.sum()
    order = np.argsort(weight)[::-1][:top]
    return [(int(values[i]), float(weight[i] / total)) for i in order]
