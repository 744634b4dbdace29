"""The whole characterization in one call.

:func:`characterize` runs every analysis in :mod:`repro.core` over a
trace — in one pass of the engine in :mod:`repro.core.streaming` — and
returns a :class:`WorkloadReport`; ``report.render()`` prints the same
rows the paper's tables and figure captions report, side by side with
the published values for easy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.filestats import FilePopulation
from repro.core.jobstats import ConcurrencyProfile, NodeCountDistribution
from repro.core.modes import ModeUsage
from repro.core.requests import RequestSizeSummary
from repro.core.sequentiality import FileRegularity
from repro.core.sharing import SharingResult
from repro.trace.frame import TraceFrame
from repro.util.cdf import EmpiricalCDF
from repro.util.tables import format_percent, format_table

#: the published values each statistic is compared against in render()
PAPER = {
    "idle_fraction": 0.27,
    "multiprogrammed_fraction": 0.35,
    "read_small_fraction": 0.961,
    "read_small_bytes": 0.020,
    "write_small_fraction": 0.894,
    "write_small_bytes": 0.030,
    "wo_fully_consecutive": 0.86,
    "ro_fully_consecutive": 0.29,
    "mode0_files": 0.99,
    "temporary_opens": 0.0061,
    "interval_table_pct": {"0": 36.5, "1": 58.2, "2": 4.0, "3": 0.2, "4+": 1.0},
    "request_table_pct": {"0": 3.9, "1": 40.0, "2": 51.4, "3": 3.9, "4+": 0.8},
}


@dataclass
class WorkloadReport:
    """Everything §4 measures, bundled."""

    concurrency: ConcurrencyProfile
    node_counts: NodeCountDistribution
    files_per_job: dict[str, int]
    files: FilePopulation
    size_cdf: EmpiricalCDF
    reads: RequestSizeSummary
    writes: RequestSizeSummary
    regularity: FileRegularity | None
    intervals: dict[str, int]
    request_sizes: dict[str, int]
    sharing: SharingResult | None
    modes: ModeUsage
    interjob_shared: int = 0
    interjob_concurrent: int = 0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Machine-readable export of every headline statistic.

        Plain JSON-serializable types only — intended for dashboards,
        regression tracking, or regenerating EXPERIMENTS.md tables.
        """
        import numpy as np

        out: dict = {
            "jobs": {
                "idle_fraction": self.concurrency.idle_fraction,
                "multiprogrammed_fraction": self.concurrency.multiprogrammed_fraction,
                "max_concurrent": self.concurrency.max_level,
                "files_per_job": dict(self.files_per_job),
                "node_counts": {
                    int(c): int(n)
                    for c, n, _, _ in self.node_counts.rows()
                },
            },
            "files": {
                "n_files": self.files.n_files,
                "n_opens": self.files.n_opens,
                "read_only": self.files.read_only,
                "write_only": self.files.write_only,
                "read_write": self.files.read_write,
                "untouched": self.files.untouched,
                "temporary_open_fraction": self.files.temporary_open_fraction,
                "median_size": self.size_cdf.median,
                "mean_bytes_read_per_reading_file":
                    self.files.mean_bytes_read_per_reading_file,
                "mean_bytes_written_per_writing_file":
                    self.files.mean_bytes_written_per_writing_file,
            },
            "requests": {
                "reads_small_fraction": self.reads.small_request_fraction,
                "reads_small_byte_fraction": self.reads.small_byte_fraction,
                "writes_small_fraction": self.writes.small_request_fraction,
                "writes_small_byte_fraction": self.writes.small_byte_fraction,
            },
            "regularity": {
                "interval_table": dict(self.intervals),
                "request_size_table": dict(self.request_sizes),
            },
            "modes": {
                "mode0_file_fraction": self.modes.mode0_file_fraction,
                "opens_per_mode": {int(k): int(v) for k, v in self.modes.opens_per_mode.items()},
            },
            "sharing": {
                "interjob_shared": self.interjob_shared,
                "interjob_concurrent": self.interjob_concurrent,
            },
            "notes": list(self.notes),
        }
        if self.regularity is not None:
            out["regularity"]["fully_consecutive"] = {
                label: self.regularity.fully_consecutive_fraction(label)
                for label in ("ro", "wo", "rw")
            }
        if self.sharing is not None:
            ro_bytes, ro_blocks = self.sharing.select("ro")
            if len(ro_bytes):
                out["sharing"]["ro_fully_byte_shared"] = float(np.mean(ro_bytes >= 1.0))
                out["sharing"]["ro_fully_block_shared"] = float(np.mean(ro_blocks >= 1.0))
        return out

    def render(self) -> str:
        """Human-readable report with paper values alongside."""
        parts = []
        parts.append("== Jobs (Figures 1-2, Table 1) ==")
        parts.append(
            f"idle fraction {format_percent(self.concurrency.idle_fraction)} "
            f"(paper >25%); >1 job "
            f"{format_percent(self.concurrency.multiprogrammed_fraction)} "
            f"(paper ~35%); max concurrent {self.concurrency.max_level} (paper 8)"
        )
        parts.append(
            format_table(
                ["nodes", "jobs", "% of jobs", "% of node-seconds"],
                [
                    (c, n, 100 * jf, 100 * uf)
                    for c, n, jf, uf in self.node_counts.rows()
                ],
                title="Figure 2: job widths",
            )
        )
        parts.append(
            format_table(
                ["files opened", "jobs"],
                list(self.files_per_job.items()),
                title="Table 1: files opened per traced job",
            )
        )
        f = self.files
        parts.append("== Files (§4.2, Figure 3) ==")
        parts.append(
            f"{f.n_files} files, {f.n_opens} opens: "
            f"read-only {f.read_only}, write-only {f.write_only}, "
            f"read-write {f.read_write}, untouched {f.untouched} "
            f"(WO:RO ratio {f.write_to_read_ratio:.2f}, paper ~3.1)"
        )
        parts.append(
            f"mean bytes/file: read {f.mean_bytes_read_per_reading_file / 1e6:.2f} MB "
            f"(paper 3.3), written {f.mean_bytes_written_per_writing_file / 1e6:.2f} MB "
            f"(paper 1.2); temporary opens "
            f"{format_percent(f.temporary_open_fraction, 2)} (paper 0.61%)"
        )
        parts.append(
            f"file sizes: median {self.size_cdf.median / 1024:.0f} KB, "
            f"CDF(10KB)={self.size_cdf.at(10240):.2f}, "
            f"CDF(1MB)={self.size_cdf.at(1 << 20):.2f} "
            "(paper: most files 10KB-1MB)"
        )
        parts.append("== Requests (Figure 4) ==")
        for s, pk, pb in (
            (self.reads, PAPER["read_small_fraction"], PAPER["read_small_bytes"]),
            (self.writes, PAPER["write_small_fraction"], PAPER["write_small_bytes"]),
        ):
            parts.append(
                f"{s.kind}s <{s.small_threshold}B: "
                f"{format_percent(s.small_request_fraction)} of requests "
                f"(paper {format_percent(pk)}), carrying "
                f"{format_percent(s.small_byte_fraction)} of bytes "
                f"(paper {format_percent(pb)})"
            )
        if self.regularity is not None:
            parts.append("== Sequentiality (Figures 5-6) ==")
            for label, name in (("wo", "write-only"), ("ro", "read-only"), ("rw", "read-write")):
                seq, con = self.regularity.select(label)
                if len(seq) == 0:
                    continue
                parts.append(
                    f"{name}: {len(seq)} files, 100% sequential "
                    f"{format_percent(self.regularity.fully_sequential_fraction(label))}, "
                    f"100% consecutive "
                    f"{format_percent(self.regularity.fully_consecutive_fraction(label))}"
                )
        total_files = sum(self.intervals.values())
        parts.append(
            format_table(
                ["distinct intervals", "files", "% (paper %)"],
                [
                    (k, v, f"{100 * v / total_files:.1f} ({PAPER['interval_table_pct'].get(k, 0):.1f})")
                    for k, v in self.intervals.items()
                ],
                title="Table 2: distinct interval sizes per file",
            )
        )
        total_files = sum(self.request_sizes.values())
        parts.append(
            format_table(
                ["distinct sizes", "files", "% (paper %)"],
                [
                    (k, v, f"{100 * v / total_files:.1f} ({PAPER['request_table_pct'].get(k, 0):.1f})")
                    for k, v in self.request_sizes.items()
                ],
                title="Table 3: distinct request sizes per file",
            )
        )
        parts.append("== Modes (§4.6) ==")
        parts.append(
            f"mode-0 files: {format_percent(self.modes.mode0_file_fraction, 2)} "
            f"(paper >99%); opens per mode {self.modes.opens_per_mode}"
        )
        if self.sharing is not None:
            parts.append("== Sharing (Figure 7, §4.7) ==")
            import numpy as np

            parts.append(
                f"files opened by >1 job: {self.interjob_shared} "
                f"(concurrently: {self.interjob_concurrent}; paper saw none)"
            )

            for label, name in (("ro", "read-only"), ("wo", "write-only"), ("rw", "read-write")):
                bytes_, blocks = self.sharing.select(label)
                if len(bytes_) == 0:
                    continue
                parts.append(
                    f"{name}: {len(bytes_)} multi-node files, "
                    f"100% byte-shared {format_percent(float(np.mean(bytes_ >= 1.0)))}, "
                    f"0% byte-shared {format_percent(float(np.mean(bytes_ == 0.0)))}, "
                    f"100% block-shared {format_percent(float(np.mean(blocks >= 1.0)))}"
                )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


def characterize(frame) -> WorkloadReport:
    """Run the full §4 characterization over a trace.

    ``frame`` may be an in-memory :class:`~repro.trace.frame.TraceFrame`
    or any :class:`~repro.trace.store.TraceSource` (a chunked store or a
    wrapped frame).  Either way one walk over the events, in this
    process, folds every analysis family into a
    :class:`~repro.core.streaming.ChunkAccumulator` whose held state
    stays bounded, so a store is characterized without materializing its
    event table.  The report is byte-identical to the reference
    analyzers in ``tests/legacy_oracle.py`` (enforced, with frozen
    digests, by ``tests/test_equivalence.py``).
    """
    # imported here: streaming pulls WorkloadReport from this module
    from repro.core.streaming import _scan_chunks, finalize_fused
    from repro.trace.store import FrameSource

    source = frame
    if isinstance(frame, TraceFrame):
        source = FrameSource(frame, chunk_size=max(frame.n_events, 1))
    with obs.span("core/characterize_fused"):
        with obs.span("core/characterize_fused/scan"):
            acc = _scan_chunks(source)
        return finalize_fused(acc, source.jobs, source.files)
