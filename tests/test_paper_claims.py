"""The paper's §5 conclusions, each as a test.

One test per claim in the paper's Conclusions and recommendations,
quoted, asserted against a generated workload.  If a calibration change
breaks a headline conclusion, this file is where it shows up.
"""

import numpy as np
import pytest

from repro.caching import (
    compute_node_stack_profile,
    simulate_combined,
    simulate_io_node_caches,
)
from repro.core.filestats import file_size_cdf, population
from repro.core.sequentiality import per_file_regularity
from repro.core.sharing import (
    concurrently_multi_node_files,
    interjob_shared_files,
    sharing_per_file,
)
from repro.core.requests import request_size_summary
from repro.strided import coalesce_trace
from repro.trace.records import EventKind
from repro.util.units import KB


class TestCommonWithPriorStudies:
    """'this workload had many characteristics in common with ... previous
    studies of scientific applications' (§5)."""

    def test_large_file_sizes(self, small_frame):
        # larger than general-purpose file systems (where medians were KBs)
        cdf = file_size_cdf(small_frame)
        assert cdf.median > 10 * KB

    def test_sequential_access(self, small_frame):
        reg = per_file_regularity(small_frame)
        fully_seq = np.mean(reg.sequential_fraction >= 1.0)
        assert fully_seq > 0.7

    def test_little_interjob_concurrent_sharing(self, small_frame):
        # 'no concurrent file sharing between jobs'
        shared, concurrent = interjob_shared_files(small_frame)
        assert len(concurrent) == 0


class TestParallelismEffects:
    """'parallelism had a significant effect on some workload
    characteristics' (§5)."""

    def test_smaller_request_sizes(self, small_frame):
        # the iconic result: request counts dominated by sub-block sizes
        summary = request_size_summary(small_frame, EventKind.READ)
        assert summary.median_size < 4096

    def test_lots_of_intrajob_concurrent_sharing(self, small_frame):
        # 'concurrent file sharing among processes within a job is
        # presumably the norm ... we saw a great deal'
        multi = concurrently_multi_node_files(small_frame)
        assert len(multi) > 10

    def test_nonconsecutive_sequential_access_exists(self, small_frame):
        # the new pattern parallelism adds: sequential but not consecutive
        reg = per_file_regularity(small_frame)
        interleaved = (reg.sequential_fraction >= 1.0) & (
            reg.consecutive_fraction < 1.0
        )
        assert interleaved.sum() > 0

    def test_interprocess_spatial_locality(self, small_frame):
        # block sharing exceeding byte sharing is the locality's signature
        res = sharing_per_file(small_frame)
        assert float(np.mean(res.block_shared)) >= float(np.mean(res.byte_shared))


class TestCachingRecommendations:
    """'Compute-node caches are probably best implemented as a single
    buffer per file... I/O-node caches can effectively combine small
    requests' (§5)."""

    def test_single_compute_buffer_suffices(self, small_frame):
        one, fifty = compute_node_stack_profile(small_frame).sweep([1, 50])
        assert fifty.fraction_above(0.75) - one.fraction_above(0.75) < 0.25

    def test_io_node_cache_effective_with_modest_size(self, small_frame):
        res = simulate_io_node_caches(small_frame, 2000, n_io_nodes=10)
        assert res.hit_rate > 0.7

    def test_io_hits_are_interprocess(self, small_frame):
        combined = simulate_combined(small_frame)
        relative = combined.io_hit_rate_reduction / combined.io_hit_rate_without
        assert relative < 0.4


class TestInterfaceRecommendation:
    """'it would be better to support strided I/O requests' (§5)."""

    def test_strided_requests_express_the_workload(self, small_frame):
        res = coalesce_trace(small_frame)
        assert res.reduction_factor > 5
        assert res.fraction_coalesced > 0.5


class TestOutOfCoreObservation:
    """'few applications chose to use files as an extension of memory'
    (§4.2) — temporaries and read-write files stay rare."""

    def test_rare_temporaries_and_rw(self, small_frame):
        pop = population(small_frame)
        assert pop.temporary_open_fraction < 0.05
        assert pop.read_write / pop.n_files < 0.15
