"""Tests for Figure 8: repro.caching.compute_node and its engine,
:func:`repro.caching.stackdist.compute_node_stack_profile`."""

import pytest

from repro.caching.compute_node import read_only_file_ids
from repro.caching.stackdist import compute_node_stack_profile
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind, Record


def _reads(file, node, pairs, job=0, t0=0.0):
    return [
        Record(time=t0 + i * 0.01, node=node, job=job, kind=EventKind.READ,
               file=file, offset=off, size=sz)
        for i, (off, sz) in enumerate(pairs)
    ]


class TestReadOnlyFiles:
    def test_written_files_excluded(self, micro_frame):
        assert list(read_only_file_ids(micro_frame)) == [0]


class TestSimulation:
    def test_small_sequential_reads_hit_after_first(self):
        # 8 x 512B consecutive: blocks change every 8 reads
        pairs = [(i * 512, 512) for i in range(8)]
        frame = TraceFrame.from_records(_reads(0, 0, pairs))
        res = compute_node_stack_profile(frame).result_at(1)
        assert res.total_requests == 8
        assert res.total_hits == 7

    def test_wide_interleave_never_hits(self):
        # node touches a different 4 KB block on every read
        pairs = [(i * 8192, 512) for i in range(8)]
        frame = TraceFrame.from_records(_reads(0, 0, pairs))
        res = compute_node_stack_profile(frame).result_at(1)
        assert res.total_hits == 0
        assert res.fraction_zero() == 1.0

    def test_multi_block_requests_cannot_hit_one_buffer(self):
        pairs = [(0, 8192), (0, 8192)]
        frame = TraceFrame.from_records(_reads(0, 0, pairs))
        profile = compute_node_stack_profile(frame)
        assert profile.result_at(1).total_hits == 0
        # with two buffers the re-read hits
        res2 = profile.result_at(2)
        assert res2.total_hits == 1

    def test_caches_are_per_node(self):
        records = _reads(0, 0, [(0, 100), (100, 100)]) + _reads(
            0, 1, [(0, 100), (100, 100)], t0=1.0
        )
        frame = TraceFrame.from_records(records)
        res = compute_node_stack_profile(frame).result_at(1)
        # each node's first read misses independently
        assert res.total_hits == 2

    def test_written_files_are_ignored(self, micro_frame):
        res = compute_node_stack_profile(micro_frame).result_at(1)
        # only file 0's four interleaved reads count; 100B records skip
        # 100B apart -> nodes reread the same block -> 1 miss each
        assert res.total_requests == 4

    def test_interspersed_files_need_multiple_buffers(self):
        # the paper: multiple buffers helped only jobs interleaving reads
        # from more than one file
        pairs_a = [(i * 100, 100) for i in range(6)]
        records = []
        for i in range(6):
            records += _reads(0, 0, [pairs_a[i]], t0=i * 1.0)
            records += _reads(1, 0, [pairs_a[i]], t0=i * 1.0 + 0.5)
        frame = TraceFrame.from_records(records)
        profile = compute_node_stack_profile(frame)
        assert profile.result_at(2).total_hits > profile.result_at(1).total_hits

    def test_requires_a_buffer(self, micro_frame):
        with pytest.raises(CacheConfigError):
            compute_node_stack_profile(micro_frame).result_at(0)

    def test_no_ro_reads_rejected(self):
        frame = TraceFrame.from_records(
            [Record(time=0, node=0, job=0, kind=EventKind.WRITE, file=0, offset=0, size=1)]
        )
        with pytest.raises(CacheConfigError):
            compute_node_stack_profile(frame)


class TestWorkloadFigure8:
    def test_trimodal_distribution(self, small_frame):
        res = compute_node_stack_profile(small_frame).result_at(1)
        assert res.fraction_zero() > 0.1
        assert res.fraction_above(0.75) > 0.1

    def test_one_buffer_nearly_as_good_as_fifty(self, small_frame):
        one, fifty = compute_node_stack_profile(small_frame).sweep([1, 50])
        assert fifty.overall_hit_rate - one.overall_hit_rate < 0.15

    def test_hit_rates_monotone_in_buffers(self, small_frame):
        one, ten = compute_node_stack_profile(small_frame).sweep([1, 10])
        assert ten.total_hits >= one.total_hits

    def test_cdf_export(self, small_frame):
        cdf = compute_node_stack_profile(small_frame).result_at(1).cdf()
        assert cdf.at(100.0) == pytest.approx(1.0)
