"""The whole characterization in one call, and the paper's numbers.

:func:`characterize` runs every analysis in :mod:`repro.core` over a
trace — in one pass of the engine in :mod:`repro.core.streaming` — and
returns a :class:`WorkloadReport`; ``report.render()`` prints the same
rows the paper's tables and figure captions report, side by side with
the published values for easy comparison.

:data:`PAPER_ROWS` holds, once, each value the paper publishes that the
program prints or checks: ``render()`` and the CLI print their "(paper …)"
text from it, and :func:`~repro.workload.validate.validate_workload`
checks its banded rows against what a report measured.
"""

from __future__ import annotations

from collections.abc import Callable
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


@dataclass(frozen=True)
class PaperRow:
    """One published value: its ``name``, the ``paper`` value (a
    percentage kept as a fraction), the ``text`` printed beside a
    measured value (None where nothing prints it) and, for a value
    ``repro validate`` checks, the tolerance ``band`` (or a function of
    the report giving it) and the ``measure`` that reads the value off a
    report (a None reading leaves the check out)."""

    name: str
    paper: float
    text: str | None = None
    band: tuple[float, float] | Callable[[WorkloadReport], tuple] | None = None
    measure: Callable[[WorkloadReport], float | None] | None = None


def _consecutive(r: WorkloadReport, label: str) -> float | None:
    return None if r.regularity is None else r.regularity.fully_consecutive_fraction(label)


def _buckets(table: str, what: str, fractions: dict[str, float]) -> tuple[PaperRow, ...]:
    """Table 2's or 3's share of files per bucket, printed as a percent."""
    return tuple(PaperRow(f"{table}: {k} {what}", p, f"{100 * p:.1f}")
                 for k, p in fractions.items())


_INTERVALS = _buckets("Table 2", "distinct intervals",
                      {"0": 0.365, "1": 0.582, "2": 0.040, "3": 0.002, "4+": 0.010})
_REQUEST_SIZES = _buckets("Table 3", "distinct sizes",
                          {"0": 0.039, "1": 0.400, "2": 0.514, "3": 0.039, "4+": 0.008})

#: every value the paper publishes that the program prints or checks
PAPER_ROWS: tuple[PaperRow, ...] = (
    # §4.1, Figures 1-2
    PaperRow("idle fraction", 0.27, ">25%", (0.05, 0.60),
             lambda r: r.concurrency.idle_fraction),
    PaperRow("multiprogrammed fraction", 0.35, "~35%", (0.10, 0.60),
             lambda r: r.concurrency.multiprogrammed_fraction),
    PaperRow("max concurrent jobs", 8, "8", (2, 8), lambda r: r.concurrency.max_level),
    PaperRow("single-node job fraction", 0.74, None, (0.55, 0.90),
             lambda r: next((jf for c, _, jf, _ in r.node_counts.rows() if c == 1), 0)),
    PaperRow("node-seconds in >=16-node jobs", 0.7, None, (0.30, 0.95),
             lambda r: sum(uf for c, _, _, uf in r.node_counts.rows() if c >= 16)),
    # §4.2, Figure 3
    PaperRow("write-only file fraction", 0.70, None, (0.55, 0.88),
             lambda r: r.files.fractions()["write_only"]),
    PaperRow("read-only file fraction", 0.23, None, (0.08, 0.40),
             lambda r: r.files.fractions()["read_only"]),
    PaperRow("read-write file fraction", 0.036, None, (0.0, 0.12),
             lambda r: r.files.fractions()["read_write"]),
    PaperRow("untouched file fraction", 0.039, None, (0.0, 0.15),
             lambda r: r.files.fractions()["untouched"]),
    PaperRow("temporary open fraction", 0.0061, "0.61%", (0.0, 0.04),
             lambda r: r.files.temporary_open_fraction),
    PaperRow("write-only to read-only file ratio", 3.1, "~3.1"),
    PaperRow("MB read per reading file", 3.3, "3.3"),
    PaperRow("MB written per writing file", 1.2, "1.2"),
    # Figure 4
    PaperRow("reads <4000B (count)", 0.961, "96.1%", (0.60, 1.0),
             lambda r: r.reads.small_request_fraction),
    PaperRow("reads <4000B (bytes)", 0.020, "2.0%", (0.0, 0.35),
             lambda r: r.reads.small_byte_fraction),
    PaperRow("writes <4000B (count)", 0.894, "89.4%", (0.70, 1.0),
             lambda r: r.writes.small_request_fraction),
    PaperRow("writes <4000B (bytes)", 0.030, "3.0%", (0.0, 0.20),
             lambda r: r.writes.small_byte_fraction),
    # Figures 5-6; read-only files may be as consecutive as write-only ones
    PaperRow("write-only fully consecutive", 0.86, None, (0.60, 1.0),
             lambda r: _consecutive(r, "wo")),
    PaperRow("read-only fully consecutive", 0.29, None,
             lambda r: (0.0, max(0.85, _consecutive(r, "wo"))),
             lambda r: _consecutive(r, "ro")),
    # Tables 2-3
    *_INTERVALS,
    *_REQUEST_SIZES,
    PaperRow("files with <=1 interval size", _INTERVALS[0].paper + _INTERVALS[1].paper,
             None, (0.75, 1.0),
             lambda r: (r.intervals["0"] + r.intervals["1"]) / sum(r.intervals.values())),
    PaperRow("files with 1-2 request sizes", _REQUEST_SIZES[1].paper + _REQUEST_SIZES[2].paper,
             None, (0.70, 1.0),
             lambda r: (r.request_sizes["1"] + r.request_sizes["2"])
             / sum(r.request_sizes.values())),
    # §4.6
    PaperRow("mode-0 file fraction", 0.99, ">99%", (0.97, 1.0),
             lambda r: r.modes.mode0_file_fraction),
    # §4.8: Figure 8 at one buffer per compute node, and the combined caches
    PaperRow("jobs above 75% compute-node hit rate", 0.40, "40%"),
    PaperRow("jobs at 0% compute-node hit rate", 0.30, "30%"),
    PaperRow("combined-cache I/O hit-rate drop", 0.03, "~3%"),
)


def paper_row(name: str) -> PaperRow:
    """The row of :data:`PAPER_ROWS` named ``name``."""
    for row in PAPER_ROWS:
        if row.name == name:
            return row
    raise KeyError(f"no published value named {name!r}")


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
            f"(paper {paper_row('idle fraction').text}); >1 job "
            f"{format_percent(self.concurrency.multiprogrammed_fraction)} "
            f"(paper {paper_row('multiprogrammed fraction').text}); "
            f"max concurrent {self.concurrency.max_level} "
            f"(paper {paper_row('max concurrent jobs').text})"
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
            f"(WO:RO ratio {f.write_to_read_ratio:.2f}, "
            f"paper {paper_row('write-only to read-only file ratio').text})"
        )
        parts.append(
            f"mean bytes/file: read {f.mean_bytes_read_per_reading_file / 1e6:.2f} MB "
            f"(paper {paper_row('MB read per reading file').text}), "
            f"written {f.mean_bytes_written_per_writing_file / 1e6:.2f} MB "
            f"(paper {paper_row('MB written per writing file').text}); "
            f"temporary opens {format_percent(f.temporary_open_fraction, 2)} "
            f"(paper {paper_row('temporary open fraction').text})"
        )
        parts.append(
            f"file sizes: median {self.size_cdf.median / 1024:.0f} KB, "
            f"CDF(10KB)={self.size_cdf.at(10240):.2f}, "
            f"CDF(1MB)={self.size_cdf.at(1 << 20):.2f} "
            "(paper: most files 10KB-1MB)"
        )
        parts.append("== Requests (Figure 4) ==")
        for s, small in ((self.reads, "reads <4000B"), (self.writes, "writes <4000B")):
            parts.append(
                f"{s.kind}s <{s.small_threshold}B: "
                f"{format_percent(s.small_request_fraction)} of requests "
                f"(paper {paper_row(f'{small} (count)').text}), carrying "
                f"{format_percent(s.small_byte_fraction)} of bytes "
                f"(paper {paper_row(f'{small} (bytes)').text})"
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
                    (k, v, f"{100 * v / total_files:.1f} "
                           f"({paper_row(f'Table 2: {k} distinct intervals').text})")
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
                    (k, v, f"{100 * v / total_files:.1f} "
                           f"({paper_row(f'Table 3: {k} distinct sizes').text})")
                    for k, v in self.request_sizes.items()
                ],
                title="Table 3: distinct request sizes per file",
            )
        )
        parts.append("== Modes (§4.6) ==")
        parts.append(
            f"mode-0 files: {format_percent(self.modes.mode0_file_fraction, 2)} "
            f"(paper {paper_row('mode-0 file fraction').text}); "
            f"opens per mode {self.modes.opens_per_mode}"
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
