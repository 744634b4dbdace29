"""Tests for the prefetching and disk-time extensions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.caching.disktime import simulate_disk_time
from repro.caching.latency import compare_latency, simulate_request_latency
from repro.caching.prefetch import prefetch_benefit, simulate_io_node_prefetch
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind, Record
from tests import cache_oracle


def _frame(specs):
    return TraceFrame.from_records(
        [
            Record(time=t, node=n, job=0, kind=k, file=f, offset=o, size=s)
            for (t, n, f, o, s, k) in specs
        ]
    )


def _sequential_block_reads(n_blocks, node=0, file=1):
    return _frame([
        (float(i), node, file, i * 4096, 4096, EventKind.READ)
        for i in range(n_blocks)
    ])


class TestPrefetch:
    def test_depth_zero_is_baseline(self, small_frame):
        from repro.caching import simulate_io_node_caches

        base = simulate_io_node_prefetch(small_frame, 500, depth=0)
        plain = simulate_io_node_caches(small_frame, 500)
        assert base.hit_rate == pytest.approx(plain.hit_rate)
        assert base.prefetches_issued == 0

    def test_sequential_stream_fully_prefetched(self):
        # one io node: every block's successor is prefetched on the miss
        frame = _sequential_block_reads(20)
        res = simulate_io_node_prefetch(frame, 16, n_io_nodes=1, depth=1)
        # first block misses, triggers prefetch of the next; every later
        # read hits its prefetched block
        assert res.read_hits == 19
        assert res.prefetch_accuracy > 0.9

    def test_prefetch_respects_striping(self):
        # with 2 io nodes, node 0 owns even blocks; its lookahead for
        # block 0 is block 2, not block 1
        frame = _sequential_block_reads(8)
        res = simulate_io_node_prefetch(frame, 16, n_io_nodes=2, depth=1)
        # every io node sees its own alternating stream: first block per
        # node misses, the rest hit
        assert res.read_hits == 6

    def test_random_stream_wastes_prefetches(self):
        import numpy as np

        rng = np.random.default_rng(0)
        blocks = rng.permutation(400)
        frame = _frame([
            (float(i), 0, 1, int(b) * 4096, 4096, EventKind.READ)
            for i, b in enumerate(blocks)
        ])
        res = simulate_io_node_prefetch(frame, 32, n_io_nodes=1, depth=2)
        assert res.prefetch_accuracy < 0.5

    def test_benefit_on_workload(self, small_frame):
        base, pref = prefetch_benefit(small_frame, 500, depth=2)
        assert pref.hit_rate >= base.hit_rate - 0.01

    def test_negative_depth_rejected(self, small_frame):
        with pytest.raises(CacheConfigError):
            simulate_io_node_prefetch(small_frame, 10, depth=-1)


class TestDiskTime:
    def test_cache_reduces_ops_and_time(self, small_frame):
        raw, cached = simulate_disk_time(small_frame, 500)
        assert cached.n_disk_ops < raw.n_disk_ops
        assert cached.busy_seconds < raw.busy_seconds
        assert cached.bytes_moved <= raw.bytes_moved

    def test_cache_coalesces_into_larger_ops(self, small_frame):
        raw, cached = simulate_disk_time(small_frame, 500)
        assert cached.mean_op_bytes > raw.mean_op_bytes * 0.9

    def test_repeated_small_reads_collapse(self):
        # 16 sub-block reads of one block: cacheless does 16 disk ops,
        # cached does one
        frame = _frame([
            (float(i), 0, 1, i * 256, 256, EventKind.READ) for i in range(16)
        ])
        raw, cached = simulate_disk_time(frame, 8, n_io_nodes=1)
        assert raw.n_disk_ops == 16
        assert cached.n_disk_ops == 1

    def test_zero_buffer_cache_degenerates(self):
        frame = _sequential_block_reads(4)
        raw, cached = simulate_disk_time(frame, 0, n_io_nodes=1)
        assert cached.n_disk_ops == raw.n_disk_ops

    def test_negative_buffers_rejected(self, small_frame):
        with pytest.raises(CacheConfigError):
            simulate_disk_time(small_frame, -1)

    def test_effective_bandwidth_improves(self, small_frame):
        raw, cached = simulate_disk_time(small_frame, 500)
        assert cached.effective_bandwidth > raw.effective_bandwidth

    def test_spans_and_disk_counters(self, small_frame):
        try:
            observer = obs.enable()
            raw, cached = simulate_disk_time(small_frame, 500)
        finally:
            obs.disable()
        assert "caching/disktime" in observer.root.children
        # one LRU pass scores both systems; one service time per operation
        assert observer.counters["caching.stackdist.passes"] == 1
        assert observer.counters["machine.disk_ops"] == raw.n_disk_ops + cached.n_disk_ops


#: (node, file, block, offset in block, size, write) rows: a few files
#: and blocks, so blocks repeat; sizes from zero through sub-block to
#: three blocks, so requests span I/O nodes
disk_rows = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 7),
        st.sampled_from([0, 100, 4000]),
        st.sampled_from([0, 1, 100, 4096, 5000, 9000]),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _random_frame(rows):
    return TraceFrame.from_records([
        Record(
            time=float(i), node=node, job=0,
            kind=EventKind.WRITE if write else EventKind.READ,
            file=file, offset=block * 4096 + within, size=size,
        )
        for i, (node, file, block, within, size, write) in enumerate(rows)
    ])


class TestDiskOracle:
    """Figure 9's LRU pass and the one disk-operation walk reproduce the
    per-request dictionary replays the disk experiments ran before,
    float for float, including I/O nodes left with no buffers."""

    @given(disk_rows, st.integers(0, 8), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_engine_equals_the_dictionary_replay(self, rows, total_buffers, n_io_nodes):
        frame = _random_frame(rows)
        try:
            want = cache_oracle.simulate_disk_time(frame, total_buffers, n_io_nodes)
        except CacheConfigError:  # only zero-size transfers
            with pytest.raises(CacheConfigError):
                simulate_disk_time(frame, total_buffers, n_io_nodes)
            with pytest.raises(CacheConfigError):
                simulate_request_latency(frame, total_buffers, n_io_nodes)
            return
        assert simulate_disk_time(frame, total_buffers, n_io_nodes) == want
        got = simulate_request_latency(frame, total_buffers, n_io_nodes)
        ref = cache_oracle.simulate_request_latency(frame, total_buffers, n_io_nodes)
        assert got.n_requests == ref.n_requests
        assert np.array_equal(got.latencies, ref.latencies)
        assert got.total_seconds == ref.total_seconds

    def test_workload_equals_the_dictionary_replay(self, small_frame):
        # the frozen digests pin 500 buffers on 10 nodes; this moves both
        assert simulate_disk_time(small_frame, 50, 3) == (
            cache_oracle.simulate_disk_time(small_frame, 50, 3)
        )
        cmp = compare_latency(small_frame, total_buffers=50, n_io_nodes=3)
        for got, buffers in ((cmp.uncached, 0), (cmp.cached, 50)):
            ref = cache_oracle.simulate_request_latency(small_frame, buffers, 3)
            assert np.array_equal(got.latencies, ref.latencies)
            assert got.total_seconds == ref.total_seconds
