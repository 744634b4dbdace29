"""Trace-driven cache simulation: §4.8, Figures 8 and 9.

The paper evaluates buffer caches at both ends of the I/O path:

- **compute-node caches** (Figure 8) — small per-node caches of 4 KB
  read-only buffers with LRU replacement; a hit is a read fully satisfied
  locally.  The result is trimodal: a cache either works (>75 % hit rate,
  spatial locality from small sequential requests) or it doesn't (0 %),
  and one buffer is about as good as fifty — there is spatial but little
  temporal locality;
- **I/O-node caches** (Figure 9) — caches at the 10 I/O nodes serving all
  jobs, with LRU or FIFO replacement over round-robin-striped blocks.
  LRU reaches ~90 % with a few thousand buffers; FIFO needs ~5× more —
  and the hits come mostly from *interprocess* spatial locality, as the
  combined experiment (§4.8) shows: adding compute-node caches barely
  dents the I/O-node hit rate.

:mod:`repro.caching.policies` also carries two policies beyond the paper
(Belady's OPT and an interprocess-locality-aware policy) as the §5
"replacement policies other than LRU or FIFO should be developed"
extension.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "blockspan": ("BlockSpans", "SubRequests", "expand_spans"),
    "compute_node": ("ComputeNodeCacheResult",),
    "diskdirected": ("DiskDirectedComparison", "compare_interfaces", "simulate_disk_directed"),
    "disktime": ("DiskTimeResult", "simulate_disk_time"),
    "combined": ("CombinedResult", "simulate_combined"),
    "latency": ("LatencyComparison", "LatencyResult", "compare_latency",
                "simulate_request_latency"),
    "io_node": ("IONodeCacheResult", "simulate_io_node_caches", "sweep_buffer_counts"),
    "prefetch": ("PrefetchResult", "prefetch_benefit", "simulate_io_node_prefetch"),
    "policies": ("FIFOPolicy", "InterprocessAwarePolicy", "LRUPolicy", "OptimalPolicy",
                 "ReplacementPolicy", "make_policy"),
    "results": ("HitRateCurve",),
    "stackdist": ("ComputeNodeStackProfile", "IONodeStackProfile",
                  "compute_node_stack_profile", "io_node_stack_profile", "lru_depths"),
    "sweeps": ("SweepLine", "sweep_lines"),
    "writeback": ("WritebackResult", "compare_write_policies", "simulate_writeback"),
})

__all__ = [
    "BlockSpans",
    "CombinedResult",
    "ComputeNodeCacheResult",
    "ComputeNodeStackProfile",
    "IONodeStackProfile",
    "SubRequests",
    "SweepLine",
    "compute_node_stack_profile",
    "expand_spans",
    "io_node_stack_profile",
    "lru_depths",
    "sweep_lines",
    "DiskDirectedComparison",
    "DiskTimeResult",
    "compare_interfaces",
    "simulate_disk_directed",
    "FIFOPolicy",
    "HitRateCurve",
    "LatencyComparison",
    "LatencyResult",
    "compare_latency",
    "simulate_request_latency",
    "InterprocessAwarePolicy",
    "IONodeCacheResult",
    "LRUPolicy",
    "OptimalPolicy",
    "PrefetchResult",
    "ReplacementPolicy",
    "make_policy",
    "prefetch_benefit",
    "simulate_disk_time",
    "simulate_io_node_prefetch",
    "simulate_combined",
    "simulate_io_node_caches",
    "simulate_writeback",
    "compare_write_policies",
    "sweep_buffer_counts",
    "WritebackResult",
]
