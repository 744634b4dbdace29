"""Synthetic production workload, calibrated to the NASA Ames study.

The original traces are unpublishable history; this package generates a
workload with the same *shape*: a production job mix (interactive status
checks, small serial tools, and parallel CFD-style applications on 1-128
nodes) whose file accesses reproduce the paper's published marginals —
the write-only/read-only file split, the dominance of small requests, the
bimodal sequentiality, the interval/request-size regularity of Tables 2-3,
the sharing profile of Figure 7, and >99 % use of I/O mode 0.

Layers:

- :mod:`repro.workload.access` — access-pattern primitives (consecutive,
  strided/interleaved, segmented, broadcast, random) as numpy arrays;
- :mod:`repro.workload.distributions` — calibrated samplers for node
  counts, file sizes, record sizes, job arrivals and durations;
- :mod:`repro.workload.apps` — application models that compose primitives
  into per-job file-use plans;
- :mod:`repro.workload.jobs` — the job mix and machine occupancy;
- :mod:`repro.workload.engines` — the :class:`WorkloadEngine` registry;
  ``synthetic`` (this calibrated planner) and ``drift`` (fs-drift-style
  equilibrium aging, :mod:`repro.workload.drift`) ship built in;
- :mod:`repro.workload.generator` — the engine-agnostic
  :class:`WorkloadGenerator` driver plus the ``synthetic`` engine, which
  turns a schedule of planned jobs into a
  :class:`~repro.trace.frame.TraceFrame` (fast direct path) or into real
  instrumented CFS calls (full-pipeline path);
- :mod:`repro.workload.scenarios` — packaged configurations and the
  scenario registry, chiefly :func:`~repro.workload.scenarios.ames1993`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "apps": ("APP_REGISTRY", "AppModel", "BroadcastReadApp", "CheckpointApp", "FileUse",
             "InterleavedScanApp", "OpsPlan", "OutOfCoreApp", "PerNodeFilterApp",
             "PerNodeOutputApp", "SegmentedReadApp", "SharedPointerApp", "SmallToolApp"),
    "distributions": ("FileSizeModel", "JobArrivalModel", "NodeCountModel",
                      "RecordSizeModel"),
    "drift": ("DriftConfig", "DriftEngine", "DriftMix", "drift_scenario", "population_curve"),
    "engines": ("WorkloadEngine", "available_engines", "get_engine", "register_engine"),
    "generator": ("GeneratedWorkload", "SyntheticEngine", "WorkloadGenerator"),
    "jobs": ("JobMix", "JobSpec", "PlacedJob", "schedule_jobs"),
    "scenarios": ("Scenario", "ames1993", "available_scenarios", "get_scenario",
                  "register_scenario", "tiny"),
    "validate": ("Check", "ValidationReport", "validate_workload"),
})

__all__ = [
    "APP_REGISTRY",
    "AppModel",
    "BroadcastReadApp",
    "CheckpointApp",
    "DriftConfig",
    "DriftEngine",
    "DriftMix",
    "FileSizeModel",
    "FileUse",
    "GeneratedWorkload",
    "InterleavedScanApp",
    "JobArrivalModel",
    "JobMix",
    "JobSpec",
    "NodeCountModel",
    "OpsPlan",
    "OutOfCoreApp",
    "PerNodeFilterApp",
    "PerNodeOutputApp",
    "PlacedJob",
    "RecordSizeModel",
    "Scenario",
    "SegmentedReadApp",
    "SharedPointerApp",
    "SmallToolApp",
    "SyntheticEngine",
    "WorkloadEngine",
    "WorkloadGenerator",
    "Check",
    "ValidationReport",
    "ames1993",
    "available_engines",
    "available_scenarios",
    "drift_scenario",
    "get_engine",
    "get_scenario",
    "population_curve",
    "register_engine",
    "register_scenario",
    "schedule_jobs",
    "tiny",
    "validate_workload",
]
