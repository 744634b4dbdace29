"""CHARISMA reproduction: dynamic file-access characteristics of a
production parallel scientific workload (Kotz & Nieuwejaar, SC '94).

Top-level convenience re-exports; see the subpackages for the full API:

- :mod:`repro.machine` — the iPSC/860 model,
- :mod:`repro.cfs` — the Concurrent File System,
- :mod:`repro.trace` — tracing, collection, postprocessing,
- :mod:`repro.workload` — the calibrated synthetic workload,
- :mod:`repro.core` — the workload characterization (the paper's results),
- :mod:`repro.caching` — trace-driven cache simulation,
- :mod:`repro.strided` — strided-request coalescing (§5 future work).
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = ["TraceFrame", "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, {"trace.frame": ("TraceFrame",)})
