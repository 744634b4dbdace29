"""Every figure of the paper as data series, plus terminal renderings.

:func:`figure_series` computes the exact (x, y) data behind each of the
paper's nine figures from a trace; :func:`render_figure` draws it as an
ASCII chart.  The six figures that are pure functions of one analysis
family's result (fig1-3, fig5-7) are drawn by :func:`family_series`,
which :func:`figure_series` feeds from the per-family analyzers and the
trace service (:mod:`repro.service.figdata`) feeds from a finished
:class:`~repro.core.report.WorkloadReport`.  Both results come from the
same finalizers in :mod:`repro.core.streaming`, and the figure
definitions live in exactly one place.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core import FIGURES
from repro.core.filestats import file_size_cdf
from repro.core.jobstats import concurrency_profile, node_count_distribution
from repro.core.requests import request_size_cdfs
from repro.core.sequentiality import per_file_regularity
from repro.core.sharing import sharing_per_file
from repro.errors import AnalysisError, CacheConfigError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind
from repro.util.cdf import EmpiricalCDF
from repro.util.plot import ascii_bars, ascii_chart

#: the figures :func:`family_series` draws, with the per-family analyzer
#: whose result each one is drawn from
_FAMILY_ANALYZERS = {
    "fig1": concurrency_profile,
    "fig2": node_count_distribution,
    "fig3": file_size_cdf,
    "fig5": per_file_regularity,
    "fig6": per_file_regularity,
    "fig7": sharing_per_file,
}


def family_series(figure: str, result) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (x, y) series of a figure drawn from one family's result.

    ``result`` is what that family's analysis produced: a
    :class:`~repro.core.jobstats.ConcurrencyProfile` (fig1), a
    :class:`~repro.core.jobstats.NodeCountDistribution` (fig2), the
    file-size :class:`~repro.util.cdf.EmpiricalCDF` (fig3), a
    :class:`~repro.core.sequentiality.FileRegularity` (fig5/fig6) or a
    :class:`~repro.core.sharing.SharingResult` (fig7).  Per-class CDFs
    are in percent and keyed "ro", "wo", "rw"; a class with no
    qualifying file is omitted.
    """
    if figure not in _FAMILY_ANALYZERS:
        raise AnalysisError(
            f"figure {figure!r} is not drawn from one family's result; "
            f"choose from {list(_FAMILY_ANALYZERS)}"
        )
    if figure == "fig1":
        return {"time at level": (result.levels.astype(float), result.fractions)}
    if figure == "fig2":
        widths = result.node_counts.astype(float)
        return {
            "jobs": (widths, result.job_fractions),
            "node-seconds": (widths, result.usage_fractions),
        }
    if figure == "fig3":
        return {"files": result.steps()}
    out = {}
    for label in ("ro", "wo", "rw"):
        # (sequential, consecutive) fractions, or (byte, block) sharing
        first, second = result.select(label)
        if not len(first):
            continue
        if figure == "fig7":
            out[f"{label}/bytes"] = EmpiricalCDF(first * 100.0).steps()
            out[f"{label}/blocks"] = EmpiricalCDF(second * 100.0).steps()
        else:
            values = first if figure == "fig5" else second
            out[label] = EmpiricalCDF(values * 100.0).steps()
    return out


def figure_series(
    frame: TraceFrame,
    figure: str,
    workers: int | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (x, y) series of one figure, keyed by series name.

    Each figure finalizes only the family it draws on.  fig3 and fig5-7
    share the frame's one fold (:func:`repro.core.streaming.fold`), which
    scans every family's state on the first call for a frame; fig1-2 and
    fig4 read the job table or the raw sizes.  ``workers`` is accepted
    for older callers and ignored: every figure runs in this process.
    """
    if figure in _FAMILY_ANALYZERS:
        return family_series(figure, _FAMILY_ANALYZERS[figure](frame))
    if figure == "fig4":
        by_count, by_bytes = request_size_cdfs(frame, EventKind.READ)
        return {"reads": by_count.steps(), "data": by_bytes.steps()}
    if figure == "fig8":
        from repro.caching.stackdist import compute_node_stack_profile

        # one stack-distance pass yields the exact per-job hit rates at
        # every buffer count (bit-equal to the per-capacity replay)
        profile = compute_node_stack_profile(frame)
        return {
            f"{res.buffers} buffer{'s' if res.buffers > 1 else ''}": res.cdf().steps()
            for res in profile.sweep((1, 10, 50))
        }
    if figure == "fig9":
        from repro.caching.sweeps import SweepLine, sweep_lines

        counts = [50, 125, 250, 500, 1000, 2000, 4000]
        policies = ("lru", "fifo")
        curves = sweep_lines(
            frame, counts,
            [SweepLine(policy=p, n_io_nodes=10) for p in policies],
        )
        return {
            policy: (curve.buffer_counts.astype(float), curve.hit_rates)
            for policy, curve in zip(policies, curves)
        }
    raise AnalysisError(f"unknown figure {figure!r}; choose from {sorted(FIGURES)}")


def render_figure(
    frame: TraceFrame,
    figure: str,
    width: int = 64,
    height: int = 14,
) -> str:
    """One figure as a captioned ASCII chart."""
    with obs.span(f"core/figures/{figure}"):
        series = figure_series(frame, figure)
    if obs.enabled():
        obs.add("core.figures.rendered")
    caption = f"{figure}: {FIGURES[figure]}"
    if figure in ("fig1", "fig2"):
        # categorical bars read better than a line for these
        first = next(iter(series.values()))
        labels = [int(x) for x in first[0]]
        if figure == "fig2":
            body = "\n".join(
                f"-- {name} --\n" + ascii_bars(labels, list(ys))
                for name, (xs, ys) in series.items()
            )
        else:
            body = ascii_bars(labels, list(first[1]))
        return f"{caption}\n{body}"
    logx = figure in ("fig3", "fig4", "fig9")
    chart = ascii_chart(
        series, width=width, height=height, logx=logx,
        x_label={"fig3": "file size (bytes)",
                 "fig4": "request size (bytes)",
                 "fig5": "% sequential", "fig6": "% consecutive",
                 "fig7": "% shared", "fig8": "per-job hit rate (%)",
                 "fig9": "total 4KB buffers"}[figure],
    )
    return f"{caption}\n{chart}"


def render_figure_svg(frame: TraceFrame, figure: str,
                      width: int = 640, height: int = 400) -> str:
    """One figure as an SVG document string."""
    from repro.util.svg import svg_bars, svg_chart

    series = figure_series(frame, figure)
    caption = f"{figure}: {FIGURES[figure]}"
    if figure in ("fig1", "fig2"):
        first = next(iter(series.values()))
        labels = [int(x) for x in first[0]]
        groups = {name: list(ys) for name, (xs, ys) in series.items()}
        return svg_bars(labels, groups, title=caption, width=width, height=height)
    logx = figure in ("fig3", "fig4", "fig9")
    x_label = {"fig3": "file size (bytes)", "fig4": "request size (bytes)",
               "fig5": "% sequential", "fig6": "% consecutive",
               "fig7": "% shared", "fig8": "per-job hit rate (%)",
               "fig9": "total 4KB buffers"}[figure]
    return svg_chart(series, title=caption, x_label=x_label,
                     y_label="CDF" if figure not in ("fig9",) else "hit rate",
                     logx=logx, width=width, height=height)


def render_all(frame: TraceFrame, width: int = 64, height: int = 12) -> str:
    """All nine figures in ``FIGURES`` order, skipping any the trace
    cannot support."""
    blocks = []
    for figure in FIGURES:
        try:
            blocks.append(
                render_figure(frame, figure, width=width, height=height)
            )
        except (AnalysisError, CacheConfigError) as exc:
            # a trace need not support every figure (e.g. a drift-engine
            # trace with no read-only files cannot drive fig8)
            blocks.append(f"{figure}: skipped ({exc})")
    return "\n\n".join(blocks)
