"""The ``drift`` engine: fs-drift-style equilibrium aging workload.

Where the ``synthetic`` engine replays the paper's 1994 CFD mix, this
engine ages a bounded namespace the way long-lived storage systems age:
every operation is drawn at random from a configurable weights table
(:class:`DriftMix` — read/write/append/create/delete/stat), each tenant
churns its own slice of the namespace from its own lane of compute
nodes, and create/delete churn drives the live-file population toward a
predictable steady state.  With create weight :math:`c` and delete
weight :math:`d`, a uniformly targeted slot flips dead→live at rate
:math:`c(1-f)` and live→dead at rate :math:`df`, so the live fraction
:math:`f` converges to :math:`c/(c+d)` — long-horizon runs spend most of
their duration in that equilibrium, which is exactly the regime the
characterization and cache layers should be exercised in.

Operations that target a slot in the wrong state (reading a dead file,
creating over a live one) are *misses*: they emit nothing and the RNG
stream moves on, mirroring how an aging harness's attempted ops fail
against the real namespace.  Each tenant's stream derives from its own
named RNG lane, and the tenants are emitted one after another in one
process, so a fixed seed always gives the same bytes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from repro import obs
from repro.cfs.modes import IOMode
from repro.errors import WorkloadError
from repro.trace.frame import TraceFrame
from repro.trace.records import NO_VALUE, EventKind, OpenFlags, TraceHeader
from repro.util.rng import SeedSequencePool
from repro.workload.engines import WorkloadEngine
from repro.workload.generator import GeneratedWorkload, _Columns
from repro.workload.jobs import JobSpec, PlacedJob
from repro.workload.scenarios import FULL_PERIOD_HOURS, Scenario

#: the operation vocabulary, in weight-table order
DRIFT_OPS: tuple[str, ...] = ("read", "write", "append", "create", "delete", "stat")


@dataclass(frozen=True)
class DriftMix:
    """Operation weights table; any non-negative scale, normalized on use."""

    read: float = 0.30
    write: float = 0.18
    append: float = 0.12
    create: float = 0.15
    delete: float = 0.10
    stat: float = 0.15

    def __post_init__(self) -> None:
        if min(self.weights) < 0:
            raise WorkloadError("drift mix weights must be non-negative")
        if sum(self.weights) <= 0:
            raise WorkloadError("drift mix needs at least one positive weight")

    @property
    def weights(self) -> tuple[float, ...]:
        """Weights in :data:`DRIFT_OPS` order."""
        return tuple(getattr(self, op) for op in DRIFT_OPS)

    def probabilities(self) -> np.ndarray:
        """Normalized draw probabilities in :data:`DRIFT_OPS` order."""
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()

    @property
    def steady_state_live_fraction(self) -> float:
        """Equilibrium live fraction of the namespace, c/(c+d)."""
        c, d = self.create, self.delete
        return 1.0 if c + d == 0 else c / (c + d)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "DriftMix":
        """Build a mix from ``{op: weight}``; unlisted ops get weight 0."""
        unknown = set(mapping) - set(DRIFT_OPS)
        if unknown:
            raise WorkloadError(
                f"unknown drift ops {sorted(unknown)} "
                f"(known: {', '.join(DRIFT_OPS)})"
            )
        weights = {op: 0.0 for op in DRIFT_OPS}
        weights.update({op: float(v) for op, v in mapping.items()})
        return cls(**weights)

    @classmethod
    def from_file(cls, path) -> "DriftMix":
        """Load a JSON mix file: an object mapping op names to weights."""
        try:
            with open(path) as fh:
                mapping = json.load(fh)
        except OSError as exc:
            raise WorkloadError(f"cannot read mix file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"mix file {path} is not valid JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise WorkloadError(f"mix file {path} must hold a JSON object")
        return cls.from_mapping(mapping)


@dataclass(frozen=True)
class DriftConfig:
    """Resolved drift engine options (``Scenario.engine_options``)."""

    mix: DriftMix = field(default_factory=DriftMix)
    #: independent lanes, each owning its namespace slice and node range
    tenants: int = 4
    #: bounded namespace: slots (file ids) per tenant
    files_per_tenant: int = 64
    #: compute nodes per tenant lane (power of two)
    nodes_per_tenant: int = 4
    #: attempted operations per tenant per traced hour
    ops_per_tenant_hour: float = 1200.0
    #: cap on transfer records per operation
    records_cap: int = 8

    def __post_init__(self) -> None:
        if self.tenants <= 0:
            raise WorkloadError("drift needs at least one tenant")
        if self.files_per_tenant <= 0:
            raise WorkloadError("files_per_tenant must be positive")
        n = self.nodes_per_tenant
        if n <= 0 or n & (n - 1):
            raise WorkloadError(
                f"nodes_per_tenant must be a power of two, got {n}"
            )
        if self.ops_per_tenant_hour <= 0:
            raise WorkloadError("ops_per_tenant_hour must be positive")
        if self.records_cap <= 0:
            raise WorkloadError("records_cap must be positive")

    @classmethod
    def from_options(cls, options: Mapping) -> "DriftConfig":
        """Resolve engine options, accepting a mix as mapping/path/DriftMix."""
        opts = dict(options)
        mix = opts.pop("mix", None)
        if mix is None:
            mix = DriftMix()
        elif isinstance(mix, DriftMix):
            pass
        elif isinstance(mix, Mapping):
            mix = DriftMix.from_mapping(mix)
        elif isinstance(mix, str):
            mix = DriftMix.from_file(mix)
        else:
            raise WorkloadError(
                "drift mix must be a mapping, a JSON file path, or a DriftMix"
            )
        known = {f.name for f in fields(cls)} - {"mix"}
        unknown = set(opts) - known
        if unknown:
            raise WorkloadError(
                f"unknown drift options {sorted(unknown)} "
                f"(known: {', '.join(sorted(known | {'mix'}))})"
            )
        return cls(mix=mix, **opts)


def drift_scenario(scale: float = 1.0) -> Scenario:
    """A drift-engine scenario; ``scale`` is the fraction of 156 hours."""
    return Scenario(
        name="drift",
        duration_hours=FULL_PERIOD_HOURS,
        engine="drift",
    ).scaled(scale)


class DriftEngine(WorkloadEngine):
    """Equilibrium aging over a bounded, tenant-partitioned namespace."""

    name = "drift"
    validation = "structural"

    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        super().__init__(scenario, seed)
        self.config = DriftConfig.from_options(scenario.engine_options)

    def plan(self) -> list[PlacedJob]:
        """The tenant lanes as placed jobs (one long-lived job per tenant)."""
        return self._tenant_jobs()

    def _tenant_jobs(self) -> list[PlacedJob]:
        cfg = self.config
        lanes = max(1, self.scenario.machine.n_compute_nodes // cfg.nodes_per_tenant)
        return [
            PlacedJob(
                spec=JobSpec(
                    job=t,
                    arrival=0.0,
                    duration=self.scenario.duration_s,
                    n_nodes=cfg.nodes_per_tenant,
                    app="drift",
                    traced=True,
                ),
                start=0.0,
                base_node=(t % lanes) * cfg.nodes_per_tenant,
            )
            for t in range(cfg.tenants)
        ]

    def _header(self) -> TraceHeader:
        m = self.scenario.machine
        return TraceHeader(
            site=f"drift-{self.scenario.name}",
            n_compute_nodes=m.n_compute_nodes,
            n_io_nodes=m.n_io_nodes,
            notes=f"seed={self.seed} engine={self.name}",
        )

    def run(self, pipeline: str = "direct") -> GeneratedWorkload:
        """Age the namespace tenant by tenant and assemble the trace frame."""
        if pipeline != "direct":
            raise WorkloadError(
                f"engine {self.name!r} supports only the 'direct' pipeline"
            )
        placed = self._tenant_jobs()

        with obs.span("workload/drift/emit"):
            cols = _Columns()
            file_rows: list[tuple[int, int, int, int]] = []
            for p in placed:
                cols.add_job_markers(p)
                file_rows.extend(_emit_tenant(
                    self.scenario, self.config, self.seed, p.job, cols
                ))
            frame = cols.to_frame(placed, file_rows, self._header())
        if obs.enabled():
            obs.add("workload.events", frame.n_events)
            obs.add("workload.jobs", len(placed))
        return GeneratedWorkload(
            frame=frame, placed=placed, scenario=self.scenario, seed=self.seed
        )


def _records(
    total: int, models, rng: np.random.Generator, cap: int
) -> tuple[int, int]:
    """(record_size, n_records) covering ``total`` bytes under the cap."""
    record = max(1, int(models.record_sizes.sample(rng, 1)[0]))
    n = max(1, min(cap, math.ceil(total / record)))
    return record, n


def _emit_tenant(
    scenario: Scenario, cfg: DriftConfig, seed: int, tenant: int, cols: _Columns
) -> list[tuple[int, int, int, int]]:
    """Age one tenant's namespace slice, appending its events to ``cols``.

    The tenant's whole stream comes from one named RNG lane and all
    state (live flags, sizes) is tenant-local.  Returns the file-table
    rows of the slots the tenant ever created.
    """
    rng = SeedSequencePool(seed).rng(f"drift/tenant/{tenant}")
    models = scenario.models
    probs = cfg.mix.probabilities()
    n_ops = max(1, int(round(cfg.ops_per_tenant_hour * scenario.duration_hours)))
    duration = scenario.duration_s
    lo, hi = 0.01 * duration, 0.99 * duration
    slot_w = (hi - lo) / n_ops

    ops = rng.choice(len(DRIFT_OPS), size=n_ops, p=probs)
    slots = rng.integers(cfg.files_per_tenant, size=n_ops)
    lanes = max(1, scenario.machine.n_compute_nodes // cfg.nodes_per_tenant)
    base_node = (tenant % lanes) * cfg.nodes_per_tenant
    op_nodes = base_node + rng.integers(cfg.nodes_per_tenant, size=n_ops)

    live = np.zeros(cfg.files_per_tenant, dtype=bool)
    sizes = np.zeros(cfg.files_per_tenant, dtype=np.int64)
    creator = np.full(cfg.files_per_tenant, NO_VALUE, dtype=np.int64)
    deleter = np.full(cfg.files_per_tenant, NO_VALUE, dtype=np.int64)
    misses = 0

    mode = int(IOMode.INDEPENDENT)
    read_flags = int(OpenFlags.READ | OpenFlags.TRACED)
    write_flags = int(OpenFlags.WRITE | OpenFlags.TRACED)
    create_flags = int(
        OpenFlags.WRITE | OpenFlags.CREATE | OpenFlags.TRUNC | OpenFlags.TRACED
    )

    def open_close(t0, t1, node, fid, flags, kinds=None, offsets=None, szs=None):
        cols.add(
            np.array([t0]), np.array([node]), tenant, fid,
            int(EventKind.OPEN), NO_VALUE, NO_VALUE, mode=mode, flags=flags,
        )
        if kinds is not None and len(kinds):
            times = np.linspace(
                t0 + 0.15 * (t1 - t0), t0 + 0.85 * (t1 - t0), len(kinds)
            )
            cols.add(
                times, np.full(len(kinds), node, dtype=np.int32),
                tenant, fid, kinds, offsets, szs,
            )
        cols.add(
            np.array([t1]), np.array([node]), tenant, fid,
            int(EventKind.CLOSE), NO_VALUE, NO_VALUE,
        )

    for i in range(n_ops):
        op = DRIFT_OPS[int(ops[i])]
        slot = int(slots[i])
        node = int(op_nodes[i])
        fid = tenant * cfg.files_per_tenant + slot
        t0 = lo + i * slot_w
        t1 = t0 + 0.9 * slot_w

        if op == "create":
            if live[slot]:
                misses += 1
                continue
            total = max(1, int(models.file_sizes.sample(rng, 1)[0]))
            record, n_rec = _records(total, models, rng, cfg.records_cap)
            offsets = record * np.arange(n_rec, dtype=np.int64)
            open_close(
                t0, t1, node, fid, create_flags,
                np.full(n_rec, int(EventKind.WRITE), dtype=np.uint8),
                offsets, np.full(n_rec, record, dtype=np.int64),
            )
            live[slot] = True
            sizes[slot] = n_rec * record
            if creator[slot] == NO_VALUE:
                creator[slot] = tenant
            deleter[slot] = NO_VALUE
        elif op == "read" or op == "write":
            if not live[slot]:
                misses += 1
                continue
            record, n_rec = _records(int(sizes[slot]), models, rng, cfg.records_cap)
            record = min(record, max(1, int(sizes[slot])))
            kind = EventKind.READ if op == "read" else EventKind.WRITE
            offsets = record * np.arange(n_rec, dtype=np.int64)
            open_close(
                t0, t1, node, fid,
                read_flags if op == "read" else write_flags,
                np.full(n_rec, int(kind), dtype=np.uint8),
                offsets, np.full(n_rec, record, dtype=np.int64),
            )
            if op == "write":
                sizes[slot] = max(int(sizes[slot]), int(offsets[-1]) + record)
        elif op == "append":
            if not live[slot]:
                misses += 1
                continue
            total = max(1, int(models.file_sizes.sample(rng, 1)[0] * 0.1))
            record, n_rec = _records(total, models, rng, cfg.records_cap)
            offsets = sizes[slot] + record * np.arange(n_rec, dtype=np.int64)
            open_close(
                t0, t1, node, fid, write_flags,
                np.full(n_rec, int(EventKind.WRITE), dtype=np.uint8),
                offsets, np.full(n_rec, record, dtype=np.int64),
            )
            sizes[slot] += n_rec * record
        elif op == "delete":
            if not live[slot]:
                misses += 1
                continue
            cols.add(
                np.array([t0]), np.array([node]), tenant, fid,
                int(EventKind.DELETE), NO_VALUE, NO_VALUE,
            )
            live[slot] = False
            deleter[slot] = tenant
        else:  # stat: a metadata-only probe, modeled as open+close
            if not live[slot]:
                misses += 1
                continue
            open_close(t0, t0 + 0.1 * slot_w, node, fid, read_flags)

    if obs.enabled():
        obs.add("workload.drift.ops", n_ops)
        obs.add("workload.drift.misses", misses)
        obs.add("workload.drift.live_files", int(live.sum()))

    return [
        (
            tenant * cfg.files_per_tenant + s,
            int(creator[s]),
            int(deleter[s]),
            int(sizes[s]),
        )
        for s in range(cfg.files_per_tenant)
        if creator[s] != NO_VALUE
    ]


def population_curve(
    frame: TraceFrame, n_bins: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Live-file population over time: (bin right edges, live count).

    Births are OPENs carrying the CREATE flag, deaths are DELETE
    records; the cumulative difference is the population the namespace
    holds at each bin edge.  On a drift trace this converges to
    ``tenants * files_per_tenant * mix.steady_state_live_fraction``.
    """
    ev = frame.events
    if not len(ev):
        return np.array([]), np.array([])
    is_birth = (ev["kind"] == int(EventKind.OPEN)) & (
        ev["flags"] & int(OpenFlags.CREATE) != 0
    )
    is_death = ev["kind"] == int(EventKind.DELETE)
    edges = np.linspace(0.0, float(ev["time"][-1]), n_bins + 1)
    births, _ = np.histogram(ev["time"][is_birth], bins=edges)
    deaths, _ = np.histogram(ev["time"][is_death], bins=edges)
    return edges[1:], np.cumsum(births - deaths)
