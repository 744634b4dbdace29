"""Tests for repro.caching.combined (§4.8)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.caching.combined import simulate_combined
from repro.errors import CacheConfigError
from repro.obs import RunReport
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


class TestCombined:
    def test_absorbed_requests_never_reach_io(self):
        # one node re-reads the same sub-block region: the second read is
        # absorbed by its compute buffer
        frame = _frame([
            (0.0, 0, 1, 0, 100, EventKind.READ),
            (1.0, 0, 1, 100, 100, EventKind.READ),
        ])
        res = simulate_combined(frame, compute_buffers=1, io_buffers_per_node=8, n_io_nodes=2)
        assert res.requests_absorbed == 1
        assert res.sub_requests_with == 1
        assert res.sub_requests_without == 2

    def test_interprocess_hits_survive_filtering(self):
        # node 0 streams whole blocks, node 1 re-reads them just after:
        # neither node re-touches a block, so compute caches absorb
        # nothing and the io hit rate is untouched by the compute layer
        specs = []
        for blk in range(6):
            specs.append((2.0 * blk, 0, 1, blk * 4096, 4096, EventKind.READ))
            specs.append((2.0 * blk + 1, 1, 1, blk * 4096, 4096, EventKind.READ))
        res = simulate_combined(_frame(specs), compute_buffers=1, n_io_nodes=1)
        assert res.compute_hit_rate == 0.0
        assert res.io_hit_rate_without == pytest.approx(0.5)
        assert res.io_hit_rate_reduction == pytest.approx(0.0, abs=1e-9)

    def test_intraprocess_hits_are_stolen(self):
        # a single node streaming 100B records: compute cache absorbs the
        # intra-block re-reads, gutting the io-node hit rate
        specs = [(float(i), 0, 1, i * 100, 100, EventKind.READ) for i in range(40)]
        res = simulate_combined(_frame(specs), compute_buffers=1, n_io_nodes=1)
        assert res.compute_hit_rate > 0.9
        assert res.io_hit_rate_without > 0.9
        assert res.io_hit_rate_with == 0.0  # only the block-crossing misses remain

    def test_writes_unaffected_by_compute_layer(self):
        specs = [(float(i), 0, 1, i * 100, 100, EventKind.WRITE) for i in range(10)]
        res = simulate_combined(_frame(specs), n_io_nodes=1)
        assert res.compute_hit_rate == 0.0
        assert res.requests_absorbed == 0

    def test_validation(self, micro_frame):
        with pytest.raises(CacheConfigError):
            simulate_combined(micro_frame, compute_buffers=0)


class TestWorkloadCombined:
    def test_small_reduction_like_paper(self, small_frame):
        # §4.8: adding compute-node buffers reduced the I/O-node hit rate
        # only slightly — the hits there are interprocess
        res = simulate_combined(small_frame, compute_buffers=1,
                                io_buffers_per_node=50, n_io_nodes=10)
        assert res.io_hit_rate_without > 0.6
        assert res.io_hit_rate_reduction < 0.25
        assert res.io_hit_rate_reduction >= 0.0


#: (job, node, file, block, offset in block, size, write) rows: files 0-1
#: are only ever read, files 2-3 are written whenever a row says so;
#: sizes run from zero through sub-block to three blocks, so requests
#: span I/O nodes
combined_rows = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(0, 5),
        st.sampled_from([0, 100, 4000]),
        st.sampled_from([0, 1, 100, 200, 4096, 5000, 9000]),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _random_frame(rows):
    return TraceFrame.from_records([
        Record(
            time=float(i), node=node, job=job,
            kind=EventKind.WRITE if write and file >= 2 else EventKind.READ,
            file=file, offset=block * 4096 + within, size=size,
        )
        for i, (job, node, file, block, within, size, write) in enumerate(rows)
    ])


class TestOracle:
    """The engines behind :func:`simulate_combined` (one LRU stack pass
    for the compute layer, the Figure 9 engine for both I/O-node runs)
    equal the per-request dictionary replay they replaced."""

    @given(
        combined_rows,
        st.integers(1, 4),
        st.sampled_from(["lru", "fifo"]),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_engines_equal_the_dictionary_replay(
        self, rows, compute_buffers, policy, n_io_nodes, per_node
    ):
        frame = _random_frame(rows)
        kwargs = dict(
            compute_buffers=compute_buffers, io_buffers_per_node=per_node,
            n_io_nodes=n_io_nodes, policy=policy,
        )
        try:
            want = cache_oracle.simulate_combined(frame, **kwargs)
        except CacheConfigError:  # only zero-size transfers
            with pytest.raises(CacheConfigError):
                simulate_combined(frame, **kwargs)
            return
        assert simulate_combined(frame, **kwargs) == want

    def test_workload_equals_the_dictionary_replay(self, small_frame):
        # the frozen digests pin the default setting; this one moves the
        # compute buffers, the policy and the I/O-node count off theirs
        kwargs = dict(compute_buffers=4, policy="fifo", n_io_nodes=3)
        assert simulate_combined(small_frame, **kwargs) == (
            cache_oracle.simulate_combined(small_frame, **kwargs)
        )

    def test_counters_and_spans(self, small_frame):
        try:
            observer = obs.enable()
            res = simulate_combined(small_frame)
        finally:
            obs.disable()
        counters = observer.counters
        assert counters["caching.combined.simulations"] == 1
        assert counters["caching.combined.requests_absorbed"] == res.requests_absorbed
        compute_requests = counters["caching.combined.compute_requests"]
        assert res.compute_hit_rate == res.requests_absorbed / compute_requests
        # both I/O-node runs are the LRU engine's, inside the §4.8 span
        node = observer.root.children["caching/combined"]
        assert node.children["caching/sweep/stackdist"].count == 2
        assert counters["caching.stackdist.lru.passes"] == 2
        names = RunReport(spans=observer.root.to_dict()).span_names()
        assert "caching/stackdist/io_node_profile" in names
