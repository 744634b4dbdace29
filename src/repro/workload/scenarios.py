"""Packaged workload scenarios.

A :class:`Scenario` is the single configuration object a user hands to
:class:`~repro.workload.generator.WorkloadGenerator`: period length, the
machine, the statistical models, the app mix, tracing fractions, and the
named :mod:`~repro.workload.engines` engine that realizes it.
:func:`ames1993` is the calibrated default reproducing the published
study's marginals; ``scale`` shrinks the traced period (the shapes are
scale-invariant, the absolute counts are not).

:data:`SCENARIOS` is the one table of scenarios by name, which the CLI
(and anything else) reads through :func:`get_scenario`; each entry is a
factory ``factory(scale) -> Scenario``, where ``scale`` is the fraction
of the paper's 156 traced hours.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

from repro.errors import WorkloadError
from repro.machine.machine import MachineConfig
from repro.workload.apps import APP_REGISTRY, WorkloadModels
from repro.workload.distributions import JobArrivalModel, NodeCountModel
from repro.workload.jobs import JobMix

#: the traced period of the original study, in hours
FULL_PERIOD_HOURS: float = 156.0


@dataclass(frozen=True)
class Scenario:
    """Full configuration of a synthetic tracing campaign."""

    name: str
    duration_hours: float
    machine: MachineConfig = field(default_factory=MachineConfig)
    arrivals: JobArrivalModel = field(default_factory=JobArrivalModel)
    node_counts: NodeCountModel = field(default_factory=NodeCountModel)
    models: WorkloadModels = field(default_factory=WorkloadModels)
    #: weights over parallel app models (keys of APP_REGISTRY, multi-node)
    parallel_app_weights: dict[str, float] = field(
        default_factory=lambda: {
            "pernode": 0.24,
            "filter": 0.15,
            "ileave": 0.11,
            "scan": 0.19,
            "segread": 0.06,
            "bcast": 0.15,
            "ckpt": 0.022,
            "shptr": 0.015,
            "update": 0.055,
            "oocore": 0.006,
        }
    )
    traced_multi_fraction: float = 0.55
    traced_single_fraction: float = 0.10
    max_concurrent_jobs: int = 8
    #: name of the workload engine that realizes this scenario (see ENGINES)
    engine: str = "synthetic"
    #: engine-specific configuration (e.g. the drift mix, a replay path)
    engine_options: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise WorkloadError("scenario duration must be positive")
        unknown = set(self.parallel_app_weights) - set(APP_REGISTRY)
        if unknown:
            raise WorkloadError(f"unknown apps in mix: {sorted(unknown)}")

    @property
    def duration_s(self) -> float:
        """Tracing period in seconds."""
        return self.duration_hours * 3600.0

    def job_mix(self) -> JobMix:
        """The job-mix sampler for this scenario."""
        return JobMix(
            arrivals=self.arrivals,
            node_counts=self.node_counts,
            parallel_app_weights=self.parallel_app_weights,
            traced_multi_fraction=self.traced_multi_fraction,
            traced_single_fraction=self.traced_single_fraction,
        )

    def scaled(self, scale: float) -> "Scenario":
        """A copy with the traced period scaled by ``scale``."""
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        return replace(self, duration_hours=self.duration_hours * scale)

    def with_engine(self, engine: str, **options) -> "Scenario":
        """A copy realized by ``engine``, with ``options`` merged into
        (and overriding) the existing engine options."""
        return replace(
            self, engine=engine,
            engine_options={**dict(self.engine_options), **options},
        )


def ames1993(scale: float = 1.0) -> Scenario:
    """The calibrated NASA-Ames-like scenario.

    ``scale=1.0`` corresponds to the paper's full 156 traced hours
    (~3000 jobs, ~60 k file opens — heavy); benchmarks default to a small
    fraction, which preserves every distributional shape.
    """
    return Scenario(name="ames1993", duration_hours=FULL_PERIOD_HOURS).scaled(scale)


def tiny(duration_hours: float = 1.5) -> Scenario:
    """A small, fast scenario for tests and examples.

    Same calibration as :func:`ames1993`, shorter period, tighter request
    cap so full-pipeline runs stay cheap.
    """
    base = ames1993()
    return replace(
        base,
        name="tiny",
        duration_hours=duration_hours,
        models=replace(base.models, max_requests_per_node_file=300),
    )


# -- the scenario table ----------------------------------------------------------


def _drift(scale: float) -> Scenario:
    # imported on first use: this module stays import-light, and drift
    # imports Scenario from here
    from repro.workload.drift import drift_scenario

    return drift_scenario(scale)


#: every scenario by name: its factory ``factory(scale) -> Scenario``
SCENARIOS: dict[str, Callable[[float], Scenario]] = {
    "ames1993": ames1993,
    "tiny": lambda scale: tiny(duration_hours=FULL_PERIOD_HOURS * scale),
    "drift": _drift,
}


def available_scenarios() -> list[str]:
    """Sorted names of every scenario."""
    return sorted(SCENARIOS)


def get_scenario(name: str, scale: float = 1.0) -> Scenario:
    """Build the named scenario at ``scale`` (fraction of 156 hours).

    Raises :class:`~repro.errors.WorkloadError` naming the available
    scenarios when ``name`` is unknown.
    """
    factory = SCENARIOS.get(name)
    if factory is None:
        raise WorkloadError(
            f"unknown scenario {name!r} "
            f"(available: {', '.join(available_scenarios())})"
        )
    return factory(scale)
