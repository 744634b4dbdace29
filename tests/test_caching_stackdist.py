"""Equivalence tests for the single-pass stack-distance engine.

The engine's contract is exactness: at every capacity, the curves it
produces must be bit-for-bit equal to brute-force replay through the
actual cache policies.  These tests check that on random traces, plus
the LRU inclusion (stack) property the engine's correctness rests on,
and hold FIFO's dense-key replay to the same dictionary oracle.  The
oracles are the dictionary replays — :func:`replay_io_node_caches` for
Figure 9 and ``tests/cache_oracle.py`` for Figure 8 — never the entry
points that dispatch to an engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.caching.blockspan import expand_spans
from repro.caching.io_node import (
    _fifo_results,
    replay_io_node_caches,
    request_stream,
    simulate_io_node_caches,
    sweep_buffer_counts,
)
from repro.caching.policies import LRUPolicy
from repro.caching.stackdist import (
    COLD,
    _count_prev_greater_before,
    compute_node_stack_profile,
    io_node_stack_profile,
    lru_depths,
)
from repro.caching.sweeps import SweepLine, sweep_lines
from repro.errors import CacheConfigError
from repro.obs import RunReport
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind, Record
from tests.cache_oracle import simulate_compute_node_caches


def _stream(draw_requests):
    """Build a request-stream tuple from (file, first, span, node, read) rows."""
    files, first, last, nodes, is_read = [], [], [], [], []
    for f, b0, span, node, rd in draw_requests:
        files.append(f)
        first.append(b0)
        last.append(b0 + span)
        nodes.append(node)
        is_read.append(rd)
    return (
        np.asarray(files, dtype=np.int64),
        np.asarray(first, dtype=np.int64),
        np.asarray(last, dtype=np.int64),
        np.asarray(nodes, dtype=np.int64),
        np.asarray(is_read, dtype=bool),
    )


request_row = st.tuples(
    st.integers(0, 2),        # file
    st.integers(0, 9),        # first block
    st.integers(0, 3),        # extra blocks spanned
    st.integers(0, 3),        # issuing node
    st.booleans(),            # is_read
)

request_rows = st.lists(request_row, min_size=1, max_size=30)

#: request rows each issued 1-3 times back to back, then a one-block
#: read issued twice and a read straddling I/O nodes: a repeated
#: one-block request is an immediate repeat on its I/O node
fifo_rows = st.lists(
    st.tuples(request_row, st.integers(1, 3)), min_size=1, max_size=20
).map(
    lambda rows: [row for row, times in rows for _ in range(times)]
    + [(1, 4, 0, 2, True), (1, 4, 0, 3, True), (2, 8, 3, 1, True)]
)

key_sequences = st.lists(st.integers(0, 7), min_size=1, max_size=40)

#: (cache id, key) accesses: a plain key sequence in one cache, or 1-3
#: interleaved caches drawing on one key range (so a key lives in
#: several caches), each access issued 1-3 times back to back (runs of
#: immediate repeats); every cache ends by touching key 0
cache_accesses = st.one_of(
    key_sequences.map(lambda keys: [(0, k) for k in keys]),
    st.integers(1, 3).flatmap(
        lambda n_caches: st.lists(
            st.tuples(
                st.integers(0, n_caches - 1), st.integers(0, 7), st.integers(1, 3)
            ),
            min_size=1,
            max_size=30,
        ).map(
            lambda rows: [(c, k) for c, k, times in rows for _ in range(times)]
            + [(c, 0) for c in range(n_caches)]
        )
    ),
)


def _lru_depths_of(accesses):
    caches = np.asarray([c for c, _ in accesses], dtype=np.int64)
    keys = np.asarray([k for _, k in accesses], dtype=np.int64)
    return lru_depths(caches, keys)


class TestIONodeEquivalence:
    @given(request_rows, st.sampled_from([1, 3]))
    @settings(max_examples=30, deadline=None)
    def test_profile_equals_replay_at_every_capacity(self, rows, n_io):
        stream = _stream(rows)
        profile = io_node_stack_profile(n_io_nodes=n_io, stream=stream)
        for cap in range(0, 14):
            got = profile.result_at(cap)
            want = replay_io_node_caches(
                None, cap, n_io_nodes=n_io, policy="lru", stream=stream
            )
            assert (
                got.read_hits, got.read_sub_requests, got.all_hits, got.all_sub_requests
            ) == (
                want.read_hits, want.read_sub_requests,
                want.all_hits, want.all_sub_requests,
            )

    @given(request_rows)
    @settings(max_examples=20, deadline=None)
    def test_curve_matches_result_at(self, rows):
        """An LRU line is the profile read at each count."""
        stream = _stream(rows)
        profile = io_node_stack_profile(n_io_nodes=2, stream=stream)
        counts = [0, 1, 3, 8]
        curve = sweep_buffer_counts(None, counts, n_io_nodes=2, stream=stream)
        for cap, rate in zip(counts, curve.hit_rates):
            assert rate == profile.result_at(cap).hit_rate

    @given(request_rows, st.sampled_from(["lru", "opt", "fifo", "interprocess"]))
    @settings(max_examples=20, deadline=None)
    def test_sweep_engines_agree(self, rows, policy):
        """Whichever engine the policy selects (the stack pass for LRU,
        the dense-key replay for FIFO, the dictionary replay for OPT and
        interprocess), the swept curve and each one-count result equal
        the per-count dictionary replay bit for bit."""
        stream = _stream(rows)
        counts = [0, 2, 5, 11]
        curve = sweep_buffer_counts(
            None, counts, n_io_nodes=3, policy=policy, stream=stream
        )
        oracle = [
            replay_io_node_caches(None, cap, n_io_nodes=3, policy=policy, stream=stream)
            for cap in counts
        ]
        assert np.array_equal(curve.hit_rates, [r.hit_rate for r in oracle])
        assert curve.policy == policy
        assert curve.buffer_counts.tolist() == counts
        assert [
            simulate_io_node_caches(None, cap, n_io_nodes=3, policy=policy, stream=stream)
            for cap in counts
        ] == oracle

    @pytest.mark.parametrize("policy", ["LRU", "Fifo", "OPT", "InterProcess"])
    def test_policy_name_is_lowercased(self, policy):
        """Every entry point reports the lowercased policy name, whichever
        engine it reaches."""
        stream = _stream([(0, 0, 1, 0, True), (0, 1, 0, 1, True)])
        lower = policy.lower()
        assert sweep_buffer_counts(
            None, [2], n_io_nodes=1, policy=policy, stream=stream
        ).policy == lower
        assert simulate_io_node_caches(
            None, 2, n_io_nodes=1, policy=policy, stream=stream
        ).policy == lower
        assert replay_io_node_caches(
            None, 2, n_io_nodes=1, policy=policy, stream=stream
        ).policy == lower


class TestFIFOReplay:
    """FIFO's dense-key replay (:func:`_fifo_results`, behind
    ``sweep_buffer_counts(policy="fifo")`` and
    ``simulate_io_node_caches(policy="fifo")``) equals the dictionary
    oracle."""

    @given(fifo_rows, st.sampled_from([1, 3, 10]))
    @settings(max_examples=40, deadline=None)
    def test_sweep_equals_oracle_at_every_count(self, rows, n_io):
        # counts 0 .. 13 include counts below n_io: zero-capacity nodes
        stream = _stream(rows)
        counts = list(range(0, 14))
        oracle = [
            replay_io_node_caches(
                None, cap, n_io_nodes=n_io, policy="fifo", stream=stream
            )
            for cap in counts
        ]
        assert _fifo_results(stream, counts, n_io) == oracle
        curve = sweep_buffer_counts(
            None, counts, n_io_nodes=n_io, policy="fifo", stream=stream
        )
        assert np.array_equal(curve.hit_rates, [r.hit_rate for r in oracle])

    def test_fig9_counts_on_small_workload(self, small_frame):
        stream = request_stream(small_frame)
        counts = [50, 125, 250, 500, 1000, 2000, 4000]
        curve = sweep_buffer_counts(None, counts, policy="fifo", stream=stream)
        oracle = [
            replay_io_node_caches(None, cap, policy="fifo", stream=stream).hit_rate
            for cap in counts
        ]
        assert np.array_equal(curve.hit_rates, oracle)

    def test_counters_equal_the_oracle_loop(self):
        rng = np.random.default_rng(3)
        first = rng.integers(0, 60, 400)
        stream = (
            rng.integers(0, 4, 400), first, first + rng.integers(0, 3, 400),
            rng.integers(0, 8, 400), rng.random(400) < 0.7,
        )
        counts = [0, 4, 10, 50]
        try:
            swept = obs.enable()
            sweep_buffer_counts(None, counts, policy="fifo", stream=stream)
            looped = obs.enable()
            for cap in counts:
                replay_io_node_caches(None, cap, policy="fifo", stream=stream)
        finally:
            obs.disable()
        assert swept.counters == looped.counters
        assert swept.counters["caching.replay.simulations"] == len(counts)
        assert swept.counters["caching.replay.fifo.read_hits"] > 0


def _read_frame(rows):
    """A frame of read-only reads from (job, node, file, offset, size) rows."""
    return TraceFrame.from_records([
        Record(time=float(i), node=n, job=j, kind=EventKind.READ,
               file=f, offset=o, size=s)
        for i, (j, n, f, o, s) in enumerate(rows)
    ])


read_rows = st.lists(
    st.tuples(
        st.integers(0, 2),            # job
        st.integers(0, 1),            # node
        st.integers(1, 2),            # file
        st.integers(0, 5 * 4096),     # offset
        st.integers(0, 2 * 4096),     # size (zero-size reads included)
    ),
    min_size=1,
    max_size=25,
)


class TestComputeNodeEquivalence:
    def test_profile_records_its_span(self, small_frame):
        try:
            observer = obs.enable()
            compute_node_stack_profile(small_frame)
        finally:
            obs.disable()
        names = RunReport(spans=observer.root.to_dict()).span_names()
        assert "caching/stackdist/compute_node_profile" in names

    @given(read_rows)
    @settings(max_examples=30, deadline=None)
    def test_profile_equals_replay_at_every_capacity(self, rows):
        frame = _read_frame(rows)
        profile = compute_node_stack_profile(frame)
        for cap in range(1, 9):
            got = profile.result_at(cap)
            want = simulate_compute_node_caches(frame, buffers=cap)
            assert got.buffers == want.buffers
            assert np.array_equal(got.job_ids, want.job_ids)
            assert np.array_equal(got.job_request_counts, want.job_request_counts)
            assert np.array_equal(got.job_hit_rates, want.job_hit_rates)
            assert (got.total_hits, got.total_requests) == (
                want.total_hits, want.total_requests,
            )


class TestStackProperties:
    @given(cache_accesses)
    @settings(max_examples=60, deadline=None)
    def test_lru_depths_predict_policy_hits(self, accesses):
        depths = _lru_depths_of(accesses)
        for cap in range(0, 9):
            # each cache against its own replay
            policies = {c: LRUPolicy(cap) for c, _ in accesses}
            hits = np.asarray([policies[c].access((0, k)) for c, k in accesses])
            assert np.array_equal(hits, depths <= cap)

    @given(key_sequences)
    @settings(max_examples=40, deadline=None)
    def test_lru_inclusion(self, keys):
        """The stack property: a capacity-c LRU cache's contents are
        always a subset of the capacity-(c+1) cache's contents."""
        caches = [LRUPolicy(cap) for cap in range(1, 9)]
        universe = {(0, k) for k in keys}
        for k in keys:
            for cache in caches:
                cache.access((0, k))
            for small, large in zip(caches, caches[1:]):
                for key in universe:
                    if key in small:
                        assert key in large

    @given(cache_accesses)
    @settings(max_examples=60, deadline=None)
    def test_depths_are_cold_exactly_on_first_touch(self, accesses):
        depths = _lru_depths_of(accesses)
        seen = set()
        for access, d in zip(accesses, depths):
            assert (d == COLD) == (access not in seen)
            seen.add(access)


#: lengths around the kernel's bootstrap width and merge-level edges
_EDGE_LENGTHS = [31, 32, 33, 63, 64, 65, 1023, 1024, 1025]


class TestRepeatCount:
    """The Bennett–Kruskal repeat count behind :func:`lru_depths`,
    held to the quadratic definition."""

    @given(
        st.one_of(st.integers(0, 300), st.sampled_from(_EDGE_LENGTHS)),
        st.sampled_from([0, 3, None, 1 << 40]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_equals_quadratic_count(self, n, top, seed):
        # entries in [-1, top]; top None means the length, 1 << 40 far
        # above it (positions in a longer sequence)
        top = n if top is None else top
        prev = np.random.default_rng(seed).integers(-1, top + 1, n)
        want = [int((prev[:i] > prev[i]).sum()) for i in range(n)]
        got = _count_prev_greater_before(prev)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestExpansionAndErrors:
    def test_expand_spans_basic(self):
        spans = expand_spans([5, 7], [2, 4], [4, 4])
        assert np.array_equal(spans.block, [2, 3, 4, 4])
        assert np.array_equal(spans.file, [5, 5, 5, 7])
        assert np.array_equal(spans.req, [0, 0, 0, 1])
        assert np.array_equal(spans.starts, [0, 3, 4])

    def test_expand_spans_rejects_inverted_span(self):
        with pytest.raises(CacheConfigError):
            expand_spans([1], [3], [2])

    def test_expand_spans_rejects_ragged_inputs(self):
        with pytest.raises(CacheConfigError):
            expand_spans([1, 2], [0], [0])

    def test_sweep_rejects_negative_count(self):
        stream = _stream([(0, 0, 0, 0, True)])
        for policy in ("lru", "opt", "fifo", "interprocess"):
            with pytest.raises(CacheConfigError, match="non-negative"):
                sweep_buffer_counts(
                    None, [4, -1], n_io_nodes=1, policy=policy, stream=stream
                )

    def test_stream_or_frame_required(self):
        for entry in (simulate_io_node_caches, replay_io_node_caches):
            with pytest.raises(CacheConfigError, match="stream"):
                entry(None, 10)
        with pytest.raises(CacheConfigError, match="stream"):
            io_node_stack_profile()


class TestSweepLines:
    def test_each_line_matches_its_own_sweep(self, micro_frame):
        stream = request_stream(micro_frame)
        lines = [SweepLine("lru"), SweepLine("fifo"), ("lru", 3), "opt"]
        counts = [1, 5, 20]
        curves = sweep_lines(None, counts, lines, stream=stream)
        assert [c.policy for c in curves] == ["lru", "fifo", "lru", "opt"]
        for curve, (policy, n_io_nodes) in zip(
            curves, [("lru", 10), ("fifo", 10), ("lru", 3), ("opt", 10)]
        ):
            alone = sweep_buffer_counts(
                None, counts, n_io_nodes=n_io_nodes, policy=policy,
                stream=stream,
            )
            assert curve.policy == alone.policy
            assert curve.n_io_nodes == alone.n_io_nodes == n_io_nodes
            assert np.array_equal(curve.hit_rates, alone.hit_rates)

    def test_empty_lines(self, micro_frame):
        assert sweep_lines(micro_frame, [1], []) == []

    def test_rejects_bad_spec(self, micro_frame):
        for spec in (42, ("lru", 10, "auto")):
            with pytest.raises(CacheConfigError):
                sweep_lines(micro_frame, [1], [spec])
