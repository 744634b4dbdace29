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

from repro.core.compare import ReportComparison, compare_reports
from repro.core.filestats import FilePopulation, file_size_cdf, population
from repro.core.intervals import (
    interval_size_table,
    per_file_distinct_intervals,
    per_file_distinct_request_sizes,
    request_size_table,
)
from repro.core.jobstats import (
    concurrency_profile,
    files_per_job_table,
    node_count_distribution,
)
from repro.core.modes import mode_usage
from repro.core.report import WorkloadReport, characterize
from repro.core.requests import request_size_cdfs, request_size_summary
from repro.core.sequentiality import per_file_regularity
from repro.core.sharing import interjob_shared_files, sharing_per_file
from repro.core.temporal import ThroughputSeries, demand_vs_capacity, throughput_series

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
