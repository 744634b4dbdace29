"""The workload characterization — the paper's primary contribution.

One module per family of results, each holding the family's result
types and its analyzers over a :class:`~repro.trace.frame.TraceFrame`.
Every number comes from one engine, :mod:`repro.core.streaming`: the
analyzers finalize their family from the frame's one fold, and
:func:`characterize` finalizes every family from one pass.

- :mod:`repro.core.jobstats` — Figures 1-2 and Table 1 (job mix);
- :mod:`repro.core.filestats` — §4.2 and Figure 3 (file population);
- :mod:`repro.core.requests` — Figure 4 (I/O request sizes);
- :mod:`repro.core.sequentiality` — Figures 5-6 (sequential/consecutive);
- :mod:`repro.core.intervals` — Tables 2-3 (access regularity);
- :mod:`repro.core.sharing` — Figure 7 (inter-node byte/block sharing);
- :mod:`repro.core.modes` — §4.6 (I/O-mode usage);
- :mod:`repro.core.report` — everything at once, rendered as text;
- :mod:`repro.core.streaming` — the engine: the chunk accumulator, the
  per-frame fold and one finalizer per family.
"""

from repro._exports import lazy_exports

#: figure id → one-line caption (the paper's).  The figures are drawn by
#: :mod:`repro.core.figures`; the table lives here so that the CLI's
#: parser reads the ids without importing the analyzers.
FIGURES = {
    "fig1": "Amount of time the machine spent with the given number of jobs",
    "fig2": "Distribution of the number of compute nodes used by jobs",
    "fig3": "CDF of the number of files of each size at close",
    "fig4": "CDF of reads by request size and of data transferred",
    "fig5": "CDF of sequential access to files on a per-node basis",
    "fig6": "CDF of consecutive access to files on a per-node basis",
    "fig7": "CDF of file sharing between nodes (byte and block)",
    "fig8": "Compute-node caching: per-job hit-rate CDF",
    "fig9": "I/O-node caching: hit rate vs buffers, LRU vs FIFO",
}

__getattr__, __dir__ = lazy_exports(__name__, {
    "compare": ("ReportComparison", "compare_reports"),
    "filestats": ("FilePopulation", "file_size_cdf", "population"),
    "intervals": ("interval_size_table", "per_file_distinct_intervals",
                  "per_file_distinct_request_sizes", "request_size_table"),
    "jobstats": ("concurrency_profile", "files_per_job_table", "node_count_distribution"),
    "modes": ("mode_usage",),
    "report": ("WorkloadReport", "characterize"),
    "requests": ("request_size_cdfs", "request_size_summary"),
    "sequentiality": ("per_file_regularity",),
    "sharing": ("interjob_shared_files", "sharing_per_file"),
    "temporal": ("ThroughputSeries", "demand_vs_capacity", "throughput_series"),
})

__all__ = [
    "FilePopulation",
    "ReportComparison",
    "compare_reports",
    "WorkloadReport",
    "characterize",
    "concurrency_profile",
    "file_size_cdf",
    "files_per_job_table",
    "interval_size_table",
    "mode_usage",
    "node_count_distribution",
    "per_file_distinct_intervals",
    "per_file_distinct_request_sizes",
    "per_file_regularity",
    "population",
    "request_size_cdfs",
    "request_size_summary",
    "request_size_table",
    "interjob_shared_files",
    "sharing_per_file",
    "ThroughputSeries",
    "demand_vs_capacity",
    "throughput_series",
]
