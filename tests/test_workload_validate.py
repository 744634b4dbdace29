"""Tests for repro.workload.validate."""

from dataclasses import replace

import pytest

from repro.core import report as core_report
from repro.workload import WorkloadGenerator, ames1993
from repro.workload.validate import Check, validate_workload


class TestCheck:
    def test_band_logic(self):
        assert Check("x", 1.0, 0.5, 0.0, 1.0).ok
        assert not Check("x", 1.0, 1.5, 0.0, 1.0).ok
        assert Check("x", 1.0, 0.0, 0.0, 1.0).ok  # inclusive bounds


class TestValidateWorkload:
    def test_default_calibration_mostly_in_band(self, small_frame):
        report = validate_workload(small_frame)
        # wide bands: the default calibration should rarely miss more
        # than a couple of metrics from seed variance
        assert report.passed >= len(report.checks) - 3

    def test_stable_metrics_always_pass(self, small_frame):
        report = validate_workload(small_frame)
        by_name = {c.name: c for c in report.checks}
        for name in (
            "mode-0 file fraction",
            "files with <=1 interval size",
            "files with 1-2 request sizes",
            "write-only fully consecutive",
            "reads <4000B (count)",
        ):
            assert by_name[name].ok, name

    def test_render_flags_failures(self, small_frame):
        report = validate_workload(small_frame)
        text = report.render()
        assert "calibration (synthetic):" in text
        assert "paper" in text and "measured" in text

    def test_report_accessors(self, small_frame):
        report = validate_workload(small_frame)
        assert report.passed + len(report.failed) == len(report.checks)
        assert report.all_ok == (len(report.failed) == 0)

    def test_detects_distributional_drift(self):
        """A deliberately mis-calibrated scenario must fail validation —
        the module's whole purpose."""
        base = ames1993(0.04)
        # kill the parallel apps: everything becomes single-node tools
        broken = replace(
            base,
            node_counts=replace_node_counts(),
            parallel_app_weights={"bcast": 1.0},
        )
        frame = WorkloadGenerator(broken, seed=3).run("direct").frame
        report = validate_workload(frame)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["node-seconds in >=16-node jobs"].ok


class TestPaperTable:
    """``validate`` checks the banded rows of the table ``characterize``
    prints from."""

    def test_checks_are_the_banded_rows_in_order(self, small_frame):
        report = validate_workload(small_frame)
        banded = [r.name for r in core_report.PAPER_ROWS if r.band is not None]
        assert [c.name for c in report.checks] == banded
        assert len(banded) == 19

    def test_one_row_feeds_both_reports(self, small_frame, monkeypatch):
        name = "reads <4000B (count)"
        rows = tuple(
            replace(r, paper=0.5, text="50.0%") if r.name == name else r
            for r in core_report.PAPER_ROWS
        )
        monkeypatch.setattr(core_report, "PAPER_ROWS", rows)
        text = core_report.characterize(small_frame).render()
        assert "of requests (paper 50.0%)" in text
        line = next(
            ln for ln in validate_workload(small_frame).render().splitlines()
            if ln.startswith(name)
        )
        assert line.split("|")[1].strip() == "0.5"

    def test_no_regularity_drops_both_consecutive_rows(
        self, small_frame, monkeypatch
    ):
        characterize = core_report.characterize
        monkeypatch.setattr(
            core_report, "characterize",
            lambda frame: replace(characterize(frame), regularity=None),
        )
        names = [c.name for c in validate_workload(small_frame).checks]
        assert len(names) == 17
        assert not any("fully consecutive" in n for n in names)

    def test_unknown_row_raises(self):
        with pytest.raises(KeyError, match="no published value"):
            core_report.paper_row("nope")


def replace_node_counts():
    from repro.workload.distributions import NodeCountModel

    return NodeCountModel(weights={1: 0.95, 2: 0.05})
