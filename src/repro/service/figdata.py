"""Figure data straight from a finished :class:`WorkloadReport`.

``GET /figdata/<run>`` must answer without touching a trace file — the
daemon holds only the folded report, never the event stream that built
it.  Six of the paper's nine figures are pure functions of the report:

- **fig1** concurrency levels × time fractions,
- **fig2** compute-node widths × job / node-second fractions,
- **fig3** file-size CDF at close,
- **fig5/fig6** per-class sequential / consecutive access CDFs,
- **fig7** per-class byte / block sharing CDFs.

fig4, fig8 and fig9 need the event stream (request-size weighting and
cache replay) and are deliberately absent; the batch
``repro figures`` command covers those.  The series come from
:func:`repro.core.figures.family_series`, the builder behind
:func:`repro.core.figures.figure_series`, so one plotting script serves
both paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import WorkloadReport

__all__ = ["REPORT_FIGURES", "figdata_from_report"]

#: the figures answerable from a report alone, with the report field
#: holding the family result each one is drawn from
_REPORT_FIELDS = {
    "fig1": "concurrency",
    "fig2": "node_counts",
    "fig3": "size_cdf",
    "fig5": "regularity",
    "fig6": "regularity",
    "fig7": "sharing",
}
REPORT_FIGURES = tuple(_REPORT_FIELDS)


def figdata_from_report(
    report: WorkloadReport, figures: tuple[str, ...] = REPORT_FIGURES
) -> dict:
    """JSON-ready ``{figure: {caption, series: {name: {x, y}}}}``.

    A figure the report cannot answer is left out: one the report has
    no field for, or one whose family was skipped for this run (no
    regularity or sharing data).
    """
    from repro.core.figures import FIGURES, family_series

    out: dict = {}
    for figure in figures:
        field = _REPORT_FIELDS.get(figure)
        result = getattr(report, field) if field else None
        if result is None:
            continue
        out[figure] = {
            "caption": FIGURES[figure],
            "series": {
                name: {
                    "x": np.asarray(xs, dtype=float).tolist(),
                    "y": np.asarray(ys, dtype=float).tolist(),
                }
                for name, (xs, ys) in family_series(figure, result).items()
            },
        }
    return out
