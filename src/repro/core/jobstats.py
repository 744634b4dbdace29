"""Job-mix characterization: Figures 1-2 and Table 1.

These statistics describe machine occupancy — how many jobs ran at once,
how wide they were, how many files each opened — and deliberately include
jobs whose file accesses were *not* traced (their start/end was recorded
by a separate mechanism), exactly as the paper's Figures 1 and 2 do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.util.histogram import bucket_counts


@dataclass(frozen=True)
class ConcurrencyProfile:
    """Time spent at each concurrent-job level (Figure 1)."""

    levels: np.ndarray          # job-count levels, ascending
    seconds: np.ndarray         # time spent at each level
    total_seconds: float

    @property
    def fractions(self) -> np.ndarray:
        """Fraction of the observation period at each level."""
        return self.seconds / self.total_seconds

    @property
    def idle_fraction(self) -> float:
        """Fraction of time with zero jobs (paper: more than a quarter)."""
        mask = self.levels == 0
        return float(self.seconds[mask].sum() / self.total_seconds)

    @property
    def multiprogrammed_fraction(self) -> float:
        """Fraction of time with more than one job (paper: about 35 %)."""
        mask = self.levels > 1
        return float(self.seconds[mask].sum() / self.total_seconds)

    @property
    def max_level(self) -> int:
        """Highest concurrency observed (paper: as many as eight)."""
        occupied = self.levels[self.seconds > 0]
        return int(occupied.max()) if len(occupied) else 0

    def rows(self) -> list[tuple[int, float, float]]:
        """(level, seconds, fraction) rows for tabulation."""
        return [
            (int(l), float(s), float(frac))
            for l, s, frac in zip(self.levels, self.seconds, self.fractions)
        ]


def concurrency_profile(frame: TraceFrame) -> ConcurrencyProfile:
    """Figure 1: how long the machine ran each number of concurrent jobs.

    Computed from the job table (every job, traced or not) over the span
    from the first job start to the last job end.
    """
    return concurrency_profile_from_jobs(frame.jobs.data)


def concurrency_profile_from_jobs(jobs: np.ndarray) -> ConcurrencyProfile:
    """Figure 1 from a bare job table (streaming sources pass it whole)."""
    if len(jobs) == 0:
        raise AnalysisError("no jobs in trace")
    t0, t1 = float(jobs["start"].min()), float(jobs["end"].max())
    if t1 <= t0:
        raise AnalysisError("degenerate observation period")
    edges = np.concatenate([jobs["start"], jobs["end"]])
    deltas = np.concatenate(
        [np.ones(len(jobs), dtype=np.int64), -np.ones(len(jobs), dtype=np.int64)]
    )
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    levels_at = np.cumsum(deltas[order])
    # durations between successive edges; level holds on [edge_i, edge_{i+1})
    durations = np.diff(edges)
    levels = levels_at[:-1]
    max_level = int(levels_at.max()) if len(levels_at) else 0
    out_levels = np.arange(max_level + 1, dtype=np.int64)
    seconds = np.zeros(max_level + 1, dtype=np.float64)
    np.add.at(seconds, levels, durations)
    if obs.enabled():
        obs.add("core.jobstats.jobs", len(jobs))
        obs.add("core.jobstats.concurrency_levels", len(out_levels))
    return ConcurrencyProfile(
        levels=out_levels, seconds=seconds, total_seconds=float(seconds.sum())
    )


@dataclass(frozen=True)
class NodeCountDistribution:
    """Jobs by number of compute nodes (Figure 2)."""

    node_counts: np.ndarray     # distinct node counts, ascending
    n_jobs: np.ndarray          # jobs at each count
    node_seconds: np.ndarray    # nodes × runtime at each count

    @property
    def job_fractions(self) -> np.ndarray:
        """Fraction of jobs at each width."""
        return self.n_jobs / self.n_jobs.sum()

    @property
    def usage_fractions(self) -> np.ndarray:
        """Fraction of node-seconds at each width — the paper's point
        that one-node jobs dominate the count while large jobs dominate
        node usage is the contrast between this and job_fractions."""
        return self.node_seconds / self.node_seconds.sum()

    def rows(self) -> list[tuple[int, int, float, float]]:
        """(nodes, jobs, job fraction, usage fraction) rows."""
        return [
            (int(c), int(n), float(jf), float(uf))
            for c, n, jf, uf in zip(
                self.node_counts, self.n_jobs, self.job_fractions, self.usage_fractions
            )
        ]


def node_count_distribution(frame: TraceFrame) -> NodeCountDistribution:
    """Figure 2: distribution of compute nodes used per job."""
    return node_count_distribution_from_jobs(frame.jobs.data)


def node_count_distribution_from_jobs(jobs: np.ndarray) -> NodeCountDistribution:
    """Figure 2 from a bare job table (streaming sources pass it whole)."""
    if len(jobs) == 0:
        raise AnalysisError("no jobs in trace")
    # group jobs by width with one stable sort; per-group products are
    # summed over contiguous slices so the float accumulation order (and
    # numpy's pairwise summation) matches the per-count masked sums
    order = np.argsort(jobs["nodes"], kind="stable")
    widths = jobs["nodes"][order]
    products = (jobs["nodes"] * (jobs["end"] - jobs["start"]))[order]
    new = np.ones(len(widths), dtype=bool)
    new[1:] = widths[1:] != widths[:-1]
    starts = np.flatnonzero(new)
    ends = np.concatenate((starts[1:], [len(widths)]))
    counts = widths[starts]
    n_jobs = (ends - starts).astype(np.int64)
    node_seconds = np.array(
        [float(products[a:b].sum()) for a, b in zip(starts.tolist(), ends.tolist())]
    )
    return NodeCountDistribution(
        node_counts=counts.astype(np.int64), n_jobs=n_jobs, node_seconds=node_seconds
    )


def files_per_job_table(frame: TraceFrame, cap: int = 5) -> dict[str, int]:
    """Table 1: number of files opened per traced job.

    A job's file count is the number of distinct files it opened over its
    whole execution.  Only jobs with at least one OPEN are counted (an
    untraced job is indistinguishable from one that did no CFS I/O — the
    same lower-bound caveat as the paper's).
    Buckets: "1", "2", ..., "<cap>+" (the paper uses 5+).
    """
    # imported here: repro.core.streaming imports this module
    from repro.core import streaming

    counts = streaming.finalize_files_per_job(streaming.fold(frame))
    return files_per_job_from_counts(counts.tolist(), cap=cap)


def files_per_job_from_counts(counts, cap: int = 5) -> dict[str, int]:
    """Table 1 from per-job distinct-file counts (any iterable of ints)."""
    table = bucket_counts(counts, cap=cap)
    table.pop("0", None)  # jobs with zero opens never appear here
    return table


def max_files_one_job(frame: TraceFrame) -> int:
    """The largest number of distinct files any single job opened
    (the paper's record holder opened 2217)."""
    from repro.core import streaming

    return int(streaming.finalize_files_per_job(streaming.fold(frame)).max())
