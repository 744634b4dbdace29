"""CHARISMA trace infrastructure.

The paper's instrumentation recorded *every* CFS call made by traced jobs:
records were buffered in a 4 KB buffer on each compute node, shipped to a
data collector on the service node (timestamped on send and on receipt,
because iPSC node clocks drift), and written to one central trace file.
Offline, the raw file was realigned, clock-corrected, and sorted before
analysis.

This package reimplements that whole pipeline:

- :mod:`repro.trace.records` — event kinds and the in-memory record type;
- :mod:`repro.trace.codec` — the fixed-width binary on-disk encoding;
- :mod:`repro.trace.writer` — per-node 4 KB buffering of encoded records;
- :mod:`repro.trace.collector` — the service-node collector and raw file;
- :mod:`repro.trace.reader` — raw-file parsing;
- :mod:`repro.trace.postprocess` — drift correction and chronological sort;
- :mod:`repro.trace.frame` — the columnar, numpy-backed representation all
  analyses consume;
- :mod:`repro.trace.merge` — combining multiple tracing periods into one
  study (the paper spliced ~3 weeks of separate trace files);
- :mod:`repro.trace.store` — the chunked, compressed, columnar on-disk
  store and the :class:`~repro.trace.store.TraceSource` abstraction that
  lets every consumer stream a trace out-of-core.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "anonymize": ("anonymize",),
    "codec": ("RECORD_SIZE", "decode_records", "decode_records_array", "encode_record"),
    "collector": ("Collector", "RawBlock", "RawTrace"),
    "frame": ("FileTable", "JobTable", "TraceFrame"),
    "merge": ("concat_frames", "merge_raw_traces"),
    "postprocess": ("DriftModel", "estimate_drift", "postprocess"),
    "reader": ("read_raw_trace",),
    "records": ("EventKind", "OpenFlags", "Record", "TraceHeader"),
    "stats": ("TraceOverhead", "per_node_record_counts", "trace_overhead"),
    "store": ("DEFAULT_CHUNK_SIZE", "FrameSource", "StoreWriter", "TraceSource",
              "TraceStore", "write_store"),
    "writer": ("NodeTraceBuffer", "TraceWriter"),
})

__all__ = [
    "Collector",
    "anonymize",
    "DEFAULT_CHUNK_SIZE",
    "DriftModel",
    "EventKind",
    "FileTable",
    "FrameSource",
    "JobTable",
    "NodeTraceBuffer",
    "OpenFlags",
    "RawBlock",
    "RawTrace",
    "RECORD_SIZE",
    "Record",
    "StoreWriter",
    "TraceFrame",
    "TraceHeader",
    "TraceSource",
    "TraceStore",
    "TraceWriter",
    "concat_frames",
    "decode_records",
    "decode_records_array",
    "encode_record",
    "estimate_drift",
    "merge_raw_traces",
    "postprocess",
    "read_raw_trace",
    "TraceOverhead",
    "per_node_record_counts",
    "trace_overhead",
    "write_store",
]
