"""Calibration validation: how close is a workload to the paper?

:func:`validate_workload` characterizes a generated trace and reports,
for each banded row of :data:`repro.core.report.PAPER_ROWS` (the paper's
published marginals), the target, the measured value, and whether it
falls inside the row's tolerance band.  The test suite uses it to police
the default calibration, and anyone adapting
:class:`~repro.workload.scenarios.Scenario` to their own site can use it
to see exactly which published property their change moves.

Validation is engine-aware: the CHARISMA marginals only describe the
``synthetic`` engine's 1994 CFD mix, so traces from other engines
(``drift``, foreign traces, third-party engines) get the
*structural* profile instead — trace invariants (time-sorted events,
valid file/node/job ids, legal open modes) plus a one-line note that the
marginals were skipped, rather than a wall of spurious failures.  The
engine is taken from the ``engine=`` token every engine stamps into the
frame header's notes, or passed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import report as core_report
from repro.errors import WorkloadError
from repro.trace.frame import TraceFrame
from repro.trace.records import NO_VALUE
from repro.util.tables import format_table


@dataclass(frozen=True)
class Check:
    """One calibration metric."""

    name: str
    paper: float
    measured: float
    lo: float
    hi: float

    @property
    def ok(self) -> bool:
        """Whether the measured value is inside the tolerance band."""
        return self.lo <= self.measured <= self.hi


@dataclass
class ValidationReport:
    """All validation checks for one trace."""

    checks: list[Check]
    #: engine the trace came from (header notes or caller)
    engine: str = "synthetic"
    #: profile applied: "marginals" (CHARISMA calibration) or "structural"
    profile: str = "marginals"
    #: free-form one-liners appended to the rendered table
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        """A table of every check, flagged pass/fail."""
        kind = "calibration" if self.profile == "marginals" else "structural"
        table = format_table(
            ["metric", "paper", "measured", "band", "ok"],
            [
                (c.name, c.paper, c.measured, f"[{c.lo:g}, {c.hi:g}]",
                 "yes" if c.ok else "NO")
                for c in self.checks
            ],
            title=f"{kind} ({self.engine}): "
                  f"{self.passed}/{len(self.checks)} checks in band",
        )
        return "\n".join([table, *self.notes]) if self.notes else table


def engine_of(frame: TraceFrame) -> str:
    """The engine a trace came from, read from its header notes.

    Every engine stamps ``engine=<name>`` into the header; traces that
    predate the registry (or come from elsewhere) default to
    ``synthetic``, preserving the old behavior.
    """
    for token in (frame.header.notes or "").split():
        if token.startswith("engine="):
            return token[len("engine="):]
    return "synthetic"


def validate_workload(
    frame: TraceFrame, engine: str | None = None
) -> ValidationReport:
    """Validate a trace with the profile its engine declares.

    ``synthetic`` traces are characterized once, and each banded row of
    :data:`~repro.core.report.PAPER_ROWS` reads its value off that
    report — bands deliberately wide, so a miss means *distributional*
    drift, not seed noise.  Every other engine gets structural checks
    only, with a note that the marginals were skipped.  ``engine``
    overrides the header-notes inference; an explicit unknown name
    raises :class:`~repro.errors.WorkloadError`.
    """
    from repro.workload.engines import get_engine

    name = engine if engine is not None else engine_of(frame)
    try:
        profile = get_engine(name).validation
    except WorkloadError:
        if engine is not None:
            raise
        # inferred from a foreign trace's notes: be permissive
        profile = "structural"
    if profile == "marginals":
        report = core_report.characterize(frame)
        checks = []
        for row in core_report.PAPER_ROWS:
            measured = None if row.measure is None else row.measure(report)
            if measured is None:
                continue
            lo, hi = row.band(report) if callable(row.band) else row.band
            checks.append(
                Check(row.name, float(row.paper), float(measured), lo, hi)
            )
        return ValidationReport(checks, engine=name, profile=profile)
    return ValidationReport(
        _structural_checks(frame),
        engine=name,
        profile=profile,
        notes=[
            f"CHARISMA marginal checks skipped: engine {name!r} declares "
            "the structural profile (the paper's marginals describe only "
            "the synthetic 1994 CFD mix)"
        ],
    )


def _structural_checks(frame: TraceFrame) -> list[Check]:
    """Trace invariants any engine must satisfy, as pass/fail Checks.

    Each check is a boolean rendered through the same Check machinery
    (paper value 1 = "must hold", band [1, 1]) so reports from every
    engine read the same way.
    """
    ev = frame.events
    checks: list[Check] = []

    def must(name: str, ok: bool) -> None:
        checks.append(Check(name, 1.0, float(bool(ok)), 1.0, 1.0))

    must("events time-sorted", frame.is_time_sorted())

    tr = frame.transfers
    must(
        "transfer offsets/sizes non-negative",
        not len(tr)
        or bool((tr["offset"] >= 0).all() and (tr["size"] >= 0).all()),
    )

    known_fids = set(frame.files.data["file"].tolist())
    fids = ev["file"]
    used = set(fids[fids != NO_VALUE].tolist())
    must(
        "event file ids in file table",
        not known_fids or used <= known_fids,
    )
    must("transfers carry file ids", not len(tr) or bool((tr["file"] >= 0).all()))

    n_nodes = frame.header.n_compute_nodes
    must(
        "event nodes within machine",
        not len(ev)
        or bool((ev["node"] >= 0).all() and (ev["node"] < n_nodes).all()),
    )

    known_jobs = set(frame.jobs.data["job"].tolist())
    jobs = ev["job"]
    used_jobs = set(jobs[jobs != NO_VALUE].tolist())
    must(
        "event job ids in job table",
        not known_jobs or used_jobs <= known_jobs,
    )

    op = frame.opens
    must(
        "open modes in 0-3",
        not len(op) or bool(((op["mode"] >= 0) & (op["mode"] <= 3)).all()),
    )
    return checks
