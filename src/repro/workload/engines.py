"""Workload engines: the planners behind the generator.

A :class:`WorkloadEngine` owns one way of turning a
:class:`~repro.workload.scenarios.Scenario` into a
:class:`~repro.workload.generator.GeneratedWorkload`; the engine-agnostic
:class:`~repro.workload.generator.WorkloadGenerator` merely resolves the
scenario's engine by name and drives it.  There are two engines:

``synthetic``
    The calibrated CHARISMA planner (job mix, app models, phase windows)
    — the original 1994 CFD workload, byte-identical to the code that
    predates the engine interface (:class:`repro.workload.generator.SyntheticEngine`).
``drift``
    An fs-drift-style equilibrium aging workload: operations drawn from
    a configurable weights table over a bounded namespace, per-tenant
    lanes, and create/delete churn toward a steady-state file population
    (:class:`repro.workload.drift.DriftEngine`).

:data:`ENGINES` is the one table of engines by name.  It holds dotted
paths, each imported on first lookup, so this module stays import-light
and free of cycles.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.generator import GeneratedWorkload
    from repro.workload.scenarios import Scenario


class WorkloadEngine(abc.ABC):
    """One strategy for realizing a scenario as a trace.

    The contract an engine owes the driver:

    - :meth:`run` returns a :class:`~repro.workload.generator.GeneratedWorkload`
      whose frame is time-sorted and structurally valid
      (``frame.validate()`` passes);
    - a fixed ``(scenario, seed)`` produces byte-identical event/job/file
      arrays on every run — every random draw comes from a named
      :class:`~repro.util.rng.SeedSequencePool` stream, and generation
      runs in one process;
    - the frame header's ``notes`` field carries ``engine=<name>`` so
      downstream consumers (validation, reports) can recover the engine
      from a trace file alone.

    ``validation`` names the profile :func:`~repro.workload.validate.
    validate_workload` applies: ``"marginals"`` engines are checked
    against the paper's published CHARISMA marginals, ``"structural"``
    engines only against trace invariants.
    """

    #: key in :data:`ENGINES`; subclasses must override
    name: ClassVar[str] = ""
    #: validation profile: "marginals" (CHARISMA calibration) or "structural"
    validation: ClassVar[str] = "structural"

    def __init__(self, scenario: "Scenario", seed: int = 0) -> None:
        self.scenario = scenario
        self.seed = seed

    @abc.abstractmethod
    def run(self, pipeline: str = "direct") -> "GeneratedWorkload":
        """Realize the scenario via the named pipeline."""

    def plan(self):
        """Engine-specific plan preview; optional."""
        raise WorkloadError(f"engine {self.name!r} does not expose a plan")


#: every engine by name: the dotted path of its class, imported on lookup
ENGINES: dict[str, str] = {
    "synthetic": "repro.workload.generator:SyntheticEngine",
    "drift": "repro.workload.drift:DriftEngine",
}


def available_engines() -> list[str]:
    """Sorted names of every engine."""
    return sorted(ENGINES)


def get_engine(name: str) -> type[WorkloadEngine]:
    """Resolve an engine class by name.

    Raises :class:`~repro.errors.WorkloadError` naming the available
    engines when ``name`` is unknown.
    """
    path = ENGINES.get(name)
    if path is None:
        raise WorkloadError(
            f"unknown workload engine {name!r} "
            f"(available: {', '.join(available_engines())})"
        )
    import importlib

    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)
