"""End-to-end integration tests.

These exercise whole slices of the system at once: the tracing pipeline's
fidelity, the characterization's paper-shaped results on a generated
workload, and the interaction between the workload's structure and the
cache simulations.
"""

import numpy as np
import pytest

from repro.caching import simulate_combined, simulate_io_node_caches
from repro.core import characterize
from repro.core.report import paper_row
from repro.strided import coalesce_trace
from repro.trace.merge import concat_frames
from repro.workload import WorkloadGenerator, ames1993, tiny


class TestPipelineFidelity:
    def test_direct_and_full_characterize_identically(self):
        """The fast columnar path and the full instrumented-machine path
        must agree on every spatial statistic (times differ by clock
        noise, but §4's analysis is spatial by design)."""
        from dataclasses import replace

        # trace every job so the tiny sample is guaranteed non-empty
        scenario = replace(
            tiny(0.8), traced_multi_fraction=1.0, traced_single_fraction=1.0
        )
        direct = WorkloadGenerator(scenario, seed=19).run("direct").frame
        full = WorkloadGenerator(scenario, seed=19).run("full").frame

        d = characterize(direct)
        f = characterize(full)
        assert d.files.n_files == f.files.n_files
        assert d.files.write_only == f.files.write_only
        assert d.files.read_only == f.files.read_only
        assert d.intervals == f.intervals
        assert d.request_sizes == f.request_sizes
        assert d.reads.n_requests == f.reads.n_requests
        assert d.reads.total_bytes == f.reads.total_bytes
        assert d.modes.files_per_mode == f.modes.files_per_mode

    def test_multi_period_study(self):
        """Several tracing periods merge into one analyzable study, the
        way the paper splices ~3 weeks of separate trace files."""
        frames = [
            WorkloadGenerator(tiny(0.6), seed=s).run("direct").frame
            for s in (1, 2)
        ]
        merged = concat_frames(frames)
        report = characterize(merged)
        assert report.files.n_files == sum(
            characterize(fr).files.n_files for fr in frames
        )


class TestPaperShapeAtScale:
    """The qualitative results §4 reports, checked on a fresh seed
    (the session fixture uses another)."""

    @pytest.fixture(scope="class")
    def report(self):
        frame = WorkloadGenerator(ames1993(0.06), seed=33).run("direct").frame
        return characterize(frame)

    def test_small_requests_dominate_counts_not_bytes(self, report):
        # the defining divergence: the count CDF far above the byte CDF
        assert report.reads.small_request_fraction > 0.6
        assert (
            report.reads.small_request_fraction
            - report.reads.small_byte_fraction
        ) > 0.4
        assert report.writes.small_request_fraction > 0.8
        assert report.writes.small_byte_fraction < 0.2

    def test_write_only_files_dominate(self, report):
        assert report.files.write_to_read_ratio > 1.5

    def test_mode_zero_dominates(self, report):
        paper = paper_row("mode-0 file fraction").paper
        assert report.modes.mode0_file_fraction > paper - 0.02

    def test_regular_access(self, report):
        total = sum(report.intervals.values())
        assert (report.intervals["0"] + report.intervals["1"]) / total > 0.75
        total3 = sum(report.request_sizes.values())
        assert (report.request_sizes["1"] + report.request_sizes["2"]) / total3 > 0.7

    def test_render_is_complete(self, report):
        text = report.render()
        assert len(text.splitlines()) > 30


class TestCachingInteractions:
    def test_interprocess_locality_dominates_io_hits(self, small_frame):
        """The study's synthesis: I/O-node caches work because of
        interprocess locality, so compute-node filtering barely hurts
        them (§4.8), and the hits survive at small cache sizes."""
        combined = simulate_combined(small_frame)
        assert combined.io_hit_rate_without > 0.55
        relative_drop = (
            combined.io_hit_rate_reduction / combined.io_hit_rate_without
        )
        assert relative_drop < 0.4

    def test_cache_hit_rate_scales_with_buffers_then_saturates(self, small_frame):
        rates = [
            simulate_io_node_caches(small_frame, n, n_io_nodes=10).hit_rate
            for n in (10, 100, 1000, 8000)
        ]
        assert rates[-1] >= rates[0]
        # saturation: the last doubling adds little
        assert rates[-1] - rates[-2] < 0.1

    def test_strided_interface_complements_caching(self, small_frame):
        """§5: the same regularity that makes caches work lets a strided
        interface eliminate most requests outright."""
        res = coalesce_trace(small_frame)
        assert res.reduction_factor > 5


class TestScalingBehaviour:
    def test_population_grows_with_period(self):
        small = WorkloadGenerator(ames1993(0.02), seed=3).run("direct")
        large = WorkloadGenerator(ames1993(0.06), seed=3).run("direct")
        assert large.n_jobs > small.n_jobs
        assert len(large.frame.files) > len(small.frame.files)

    def test_status_job_cadence_scale_invariant(self):
        wl = WorkloadGenerator(ames1993(0.02), seed=3).run("direct")
        status = [p for p in wl.placed if p.spec.is_status]
        hours = wl.scenario.duration_hours
        assert len(status) == pytest.approx(hours * 3600 / 700, abs=2)
