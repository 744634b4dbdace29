"""The ``replay`` engine: re-emit an existing trace through the pipeline.

Useful when a trace already exists — captured by an earlier ``generate``
run, produced by another engine, or hand-built in a test — and should
flow through the same :class:`~repro.workload.generator.WorkloadGenerator`
driver the other engines use, so characterization, cache sweeps, and
``run_to_store`` re-chunking all work on it unchanged.

The source is named by the scenario's engine options: ``path`` points at
a chunked trace store, or ``frame`` carries an in-memory
:class:`~repro.trace.frame.TraceFrame` directly.  The replayed
frame keeps its original header (including the ``engine=`` note), so
downstream consumers still see the trace's true provenance — replay is
transport, not authorship.
"""

from __future__ import annotations

from repro import obs
from repro.errors import WorkloadError
from repro.trace.frame import TraceFrame
from repro.workload.engines import WorkloadEngine
from repro.workload.generator import GeneratedWorkload
from repro.workload.scenarios import Scenario


def replay_scenario(path) -> Scenario:
    """A scenario that replays the store at ``path``."""
    return Scenario(
        name="replay",
        duration_hours=1.0,
        engine="replay",
        engine_options={"path": str(path)},
    )


class ReplayEngine(WorkloadEngine):
    """Re-emits a stored or in-memory trace as a generated workload."""

    name = "replay"
    validation = "structural"

    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        super().__init__(scenario, seed)
        opts = dict(scenario.engine_options)
        self.path = opts.get("path")
        self.source_frame = opts.get("frame")
        if self.path is None and self.source_frame is None:
            raise WorkloadError(
                "replay engine needs engine_options['path'] (a trace store) "
                "or engine_options['frame'] (a TraceFrame)"
            )
        if self.source_frame is not None and not isinstance(
            self.source_frame, TraceFrame
        ):
            raise WorkloadError("engine_options['frame'] must be a TraceFrame")

    def run(self, pipeline: str = "direct") -> GeneratedWorkload:
        """Load the source and wrap it; trivially byte-identical always."""
        if pipeline != "direct":
            raise WorkloadError(
                f"engine {self.name!r} supports only the 'direct' pipeline"
            )
        with obs.span("workload/replay/load"):
            if self.source_frame is not None:
                frame = self.source_frame
            else:
                from repro.trace.store import TraceStore

                with TraceStore(self.path) as store:
                    frame = store.frame()
        if obs.enabled():
            obs.add("workload.events", frame.n_events)
        return GeneratedWorkload(
            frame=frame, placed=[], scenario=self.scenario, seed=self.seed
        )
