"""``repro.service`` — the collector → aggregator → query trace service.

The paper's CHARISMA instrumentation was itself a distributed pipeline:
per-node collectors buffered trace records and funneled them to an
off-line analyzer (§2).  This package turns the reproduction's batch CLI
into the same shape, live:

- **collector**: ``repro push`` reads a trace store, and
  :class:`ServiceClient` any :class:`~repro.trace.store.TraceSource`,
  and streams its chunks over HTTP, framed by the
  :mod:`~repro.service.wire` codec — many clients may push disjoint
  chunk ranges of one run concurrently;
- **aggregator**: ``repro serve`` (:class:`TraceService`) folds every
  pushed chunk incrementally through the fused engine's
  :class:`~repro.core.streaming.ChunkAccumulator`, one accumulator per
  registered run, with out-of-order chunks parked as single-chunk
  partials and merged the moment the sequence closes;
- **query tier**: the same daemon answers ``/runs``, ``/report/<run>``
  and ``/figdata/<run>`` from the accumulators alone — no store file is
  ever re-read, and the finished report is byte-identical to
  ``repro characterize`` over the same trace.

The daemon eats its own dog food: every request updates the
:mod:`repro.obs` stack (ingest counters, fold-latency and chunk-size
histograms, queue-depth and active-run gauges, run-lifecycle events in
its trace log, a live sampler ring) and serves it back at ``/metrics``
and ``/healthz`` — the service is observable with the same tooling it
serves.  ``/shutdown`` (and SIGINT/SIGTERM on ``repro serve``) drains
gracefully; with ``--snapshot PATH`` a restarted daemon replays a log of
the wire bytes it accepted and resumes folding mid-run.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("ServiceClient",),
    "daemon": ("TraceService",),
    "figdata": ("figdata_from_report",),
    "wire": ("WIRE_VERSION", "decode_chunk", "decode_table", "encode_chunk", "encode_table"),
})

__all__ = [
    "ServiceClient",
    "TraceService",
    "WIRE_VERSION",
    "decode_chunk",
    "decode_table",
    "encode_chunk",
    "encode_table",
    "figdata_from_report",
]
