"""Tests for repro.caching.latency and repro.trace.anonymize."""

import numpy as np
import pytest

from repro.caching.latency import compare_latency, simulate_request_latency
from repro.core import characterize
from repro.errors import CacheConfigError, TraceError
from repro.trace.anonymize import anonymize
from repro.trace.frame import EVENT_DTYPE, TraceFrame
from repro.trace.records import NO_VALUE


class TestRequestLatency:
    def test_cache_speeds_up_io(self, small_frame):
        cmp = compare_latency(small_frame, total_buffers=500)
        assert cmp.cached.total_seconds < cmp.uncached.total_seconds
        assert cmp.speedup > 1.5

    def test_zero_buffers_is_the_uncached_baseline(self, small_frame):
        a = simulate_request_latency(small_frame, 0)
        cmp = compare_latency(small_frame)
        assert a.total_seconds == pytest.approx(cmp.uncached.total_seconds)

    def test_statistics_ordering(self, small_frame):
        res = simulate_request_latency(small_frame, 500)
        assert res.median <= res.p95
        assert res.n_requests == len(res.latencies)
        assert (res.latencies > 0).all()

    def test_cdf_in_milliseconds(self, small_frame):
        res = simulate_request_latency(small_frame, 500)
        cdf = res.cdf()
        assert cdf.median == pytest.approx(res.median * 1e3, rel=1e-6)

    def test_validation(self, small_frame):
        with pytest.raises(CacheConfigError):
            simulate_request_latency(small_frame, -1)


class TestAnonymize:
    def test_ids_renumbered_densely(self, small_frame):
        anon = anonymize(small_frame, key=1)
        jobs = np.unique(anon.jobs.data["job"])
        assert jobs.min() == 0
        assert jobs.max() == len(jobs) - 1
        files = anon.events["file"]
        fids = np.unique(files[files != NO_VALUE])
        assert fids.min() == 0

    def test_time_origin_zeroed(self, small_frame):
        anon = anonymize(small_frame, key=1)
        assert min(float(anon.events["time"].min()),
                   float(anon.jobs.data["start"].min())) == pytest.approx(0.0)

    def test_keyed_determinism(self, small_frame):
        a = anonymize(small_frame, key=5)
        b = anonymize(small_frame, key=5)
        assert np.array_equal(a.events, b.events)
        c = anonymize(small_frame, key=6)
        assert not np.array_equal(a.events["job"], c.events["job"])

    def test_every_analysis_survives(self, small_frame):
        """The whole point: anonymization must not change any statistic."""
        orig = characterize(small_frame)
        anon = characterize(anonymize(small_frame, key=3))
        assert anon.files.n_files == orig.files.n_files
        assert anon.files.write_only == orig.files.write_only
        assert anon.files.temporary_files == orig.files.temporary_files
        assert anon.intervals == orig.intervals
        assert anon.request_sizes == orig.request_sizes
        assert anon.reads.small_request_fraction == pytest.approx(
            orig.reads.small_request_fraction
        )
        assert anon.modes.files_per_mode == orig.modes.files_per_mode
        assert anon.concurrency.idle_fraction == pytest.approx(
            orig.concurrency.idle_fraction
        )

    def test_caching_results_survive(self, small_frame):
        from repro.caching import simulate_io_node_caches

        orig = simulate_io_node_caches(small_frame, 500)
        anon = simulate_io_node_caches(anonymize(small_frame, key=3), 500)
        # renumbering files changes block keys but not reuse structure
        assert anon.read_sub_requests == orig.read_sub_requests
        assert anon.read_hits == orig.read_hits

    def test_header_scrubbed(self, small_frame):
        anon = anonymize(small_frame, key=1)
        assert anon.header.site == "anonymized"
        assert anon.header.notes == ""

    def test_empty_rejected(self, micro_frame):
        empty = TraceFrame(np.zeros(0, dtype=EVENT_DTYPE), jobs=micro_frame.jobs)
        with pytest.raises(TraceError):
            anonymize(empty)
