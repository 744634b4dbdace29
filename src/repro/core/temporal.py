"""Temporal I/O behaviour: throughput and burstiness over time.

The paper bases its analysis on spatial structure (its clocks are only
approximately synchronized), but cites I/O-*rate* characterizations
(Miller & Katz; Pasquale & Polyzos) as the prior art for vector
machines.  This module provides the rate view for our traces — useful
for capacity questions the spatial analysis cannot answer (does the
workload ever approach the machine's 10 MB/s ceiling?).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind


@dataclass(frozen=True)
class ThroughputSeries:
    """Bytes moved per time bin."""

    bin_edges: np.ndarray     # len n+1, seconds
    read_bytes: np.ndarray    # len n
    write_bytes: np.ndarray   # len n

    @property
    def bin_seconds(self) -> float:
        """Width of one bin."""
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def total_rate(self) -> np.ndarray:
        """Combined MB/s per bin."""
        return (self.read_bytes + self.write_bytes) / self.bin_seconds / 1e6

    @property
    def peak_rate(self) -> float:
        """Highest combined MB/s over any bin."""
        return float(self.total_rate.max()) if len(self.read_bytes) else 0.0

    @property
    def mean_rate(self) -> float:
        """Average combined MB/s across the observed span."""
        span = float(self.bin_edges[-1] - self.bin_edges[0])
        if span == 0:
            return 0.0
        total = float(self.read_bytes.sum() + self.write_bytes.sum())
        return total / span / 1e6

    @property
    def burstiness(self) -> float:
        """Peak over mean rate — how spiky the demand is."""
        mean = self.mean_rate
        return self.peak_rate / mean if mean > 0 else 0.0

    def active_fraction(self, threshold_mb_s: float = 0.01) -> float:
        """Fraction of bins with traffic above a threshold."""
        if len(self.read_bytes) == 0:
            return 0.0
        return float(np.mean(self.total_rate > threshold_mb_s))


def throughput_series(frame: TraceFrame, bin_seconds: float = 60.0) -> ThroughputSeries:
    """Bin the trace's transfers into a throughput time series."""
    if bin_seconds <= 0:
        raise AnalysisError("bin width must be positive")
    tr = frame.transfers
    if len(tr) == 0:
        raise AnalysisError("no transfers in trace")
    t0, t1 = frame.time_span()
    if t1 <= t0:
        t1 = t0 + bin_seconds
    n_bins = max(1, int(np.ceil((t1 - t0) / bin_seconds)))
    edges = t0 + bin_seconds * np.arange(n_bins + 1)
    idx = np.clip(((tr["time"] - t0) / bin_seconds).astype(np.int64), 0, n_bins - 1)
    read_bytes = np.zeros(n_bins)
    write_bytes = np.zeros(n_bins)
    reads = tr["kind"] == int(EventKind.READ)
    np.add.at(read_bytes, idx[reads], tr["size"][reads].astype(np.float64))
    np.add.at(write_bytes, idx[~reads], tr["size"][~reads].astype(np.float64))
    return ThroughputSeries(bin_edges=edges, read_bytes=read_bytes, write_bytes=write_bytes)


def demand_vs_capacity(
    frame: TraceFrame,
    aggregate_bandwidth: float = 10e6,
    bin_seconds: float = 60.0,
) -> dict[str, float]:
    """How the workload's demand compares to the machine's I/O ceiling.

    Returns mean and peak utilization of ``aggregate_bandwidth`` (the NAS
    machine: under 10 MB/s) and the fraction of bins above 50 % of it —
    the paper's suspicion that bandwidth limits shaped user behaviour is
    testable this way.
    """
    series = throughput_series(frame, bin_seconds)
    cap_mb = aggregate_bandwidth / 1e6
    rates = series.total_rate
    return {
        "mean_utilization": float(series.mean_rate / cap_mb),
        "peak_utilization": float(series.peak_rate / cap_mb),
        "fraction_above_half": float(np.mean(rates > 0.5 * cap_mb)),
    }
