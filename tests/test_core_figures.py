"""Tests for repro.core.figures."""

import numpy as np
import pytest

from repro.core.figures import (
    FIGURES,
    family_series,
    figure_series,
    render_all,
    render_figure,
)
from repro.errors import AnalysisError


class TestFigureSeries:
    def test_every_figure_produces_series(self, small_frame):
        for figure in FIGURES:
            series = figure_series(small_frame, figure)
            assert series, figure
            for name, (xs, ys) in series.items():
                assert len(xs) == len(ys), (figure, name)
                assert len(xs) > 0

    def test_unknown_figure_rejected(self, small_frame):
        with pytest.raises(AnalysisError):
            figure_series(small_frame, "fig99")

    def test_family_series_rejects_trace_figures(self):
        # fig4, fig8 and fig9 need the event stream, not one family result
        with pytest.raises(AnalysisError, match="fig4"):
            family_series("fig4", None)

    def test_fig1_fractions(self, small_frame):
        (xs, ys) = figure_series(small_frame, "fig1")["time at level"]
        assert ys.sum() == pytest.approx(1.0)

    def test_fig4_byte_curve_below_count_curve(self, small_frame):
        series = figure_series(small_frame, "fig4")
        reads_x, reads_y = series["reads"]
        data_x, data_y = series["data"]
        # at 4000 bytes the count CDF far exceeds the byte CDF
        count_at = reads_y[np.searchsorted(reads_x, 4000) - 1]
        bytes_at = data_y[np.searchsorted(data_x, 4000) - 1]
        assert count_at - bytes_at > 0.4

    def test_fig9_two_policies(self, small_frame):
        series = figure_series(small_frame, "fig9")
        assert set(series) == {"lru", "fifo"}


class TestRendering:
    def test_render_figure_includes_caption(self, small_frame):
        text = render_figure(small_frame, "fig3")
        assert text.startswith("fig3:")
        assert "file size" in text

    def test_bars_for_job_figures(self, small_frame):
        assert "#" in render_figure(small_frame, "fig1")
        assert "#" in render_figure(small_frame, "fig2")

    def test_render_all_covers_every_figure(self, small_frame):
        text = render_all(small_frame, width=40, height=8)
        for figure in FIGURES:
            assert figure in text

    def test_render_all_degrades_gracefully(self, micro_frame):
        text = render_all(micro_frame, width=40, height=8)
        assert "fig1" in text  # either drawn or noted as skipped
