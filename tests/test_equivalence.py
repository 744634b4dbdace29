"""Byte-identity of the generators and the characterization engine.

The one-pass engine behind :func:`repro.core.characterize` and every way
of feeding it — whole frame, chunked, on-disk — promise
*exactly* the report the original per-analyzer code produced, not merely
statistically equivalent output.  These tests pin that promise against
the frozen legacy implementation (``tests/legacy_oracle.py``), check
every per-family analyzer the oracle also implements against its copy
there, and check against frozen report, command-output, cache-figure and §4.8
digests at two seeds/scales.  They also freeze the direct and full
pipelines' output (the full pipeline's raw trace, frame, CFS end state
and simulation counters), check the full pipeline's replayer against the
step oracle in ``tests/replay_oracle.py``, and check the vectorized
strided-run detector against its reference loop in
``tests/strided_oracle.py`` on arbitrary streams.
"""

import dataclasses
import hashlib
import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    characterize,
    filestats,
    intervals,
    jobstats,
    modes,
    requests,
    sequentiality,
    sharing,
)
from repro.core.figures import figure_series, render_all
from repro.strided.detect import coalesce_runs, coalesce_stream, coalesce_trace
from repro import obs
from repro.trace.records import EventKind
from repro.util.cdf import EmpiricalCDF
from repro.workload import (
    WorkloadGenerator,
    ames1993,
    get_scenario,
    tiny,
    validate_workload,
)
from tests import legacy_oracle, strided_oracle
from tests.legacy_oracle import characterize_legacy
from tests.replay_oracle import run_full_step


@pytest.fixture(
    scope="module",
    params=[(0.02, 5), (0.01, 11)],
    ids=["scale02-seed5", "scale01-seed11"],
)
def workload(request):
    scale, seed = request.param
    return WorkloadGenerator(ames1993(scale), seed=seed).run("direct")


#: sha256 of (events, jobs, files) captured from the pre-engine-registry
#: WorkloadGenerator — the synthetic engine must reproduce these forever
_FROZEN_SYNTHETIC_DIGESTS = {
    (0.02, 5): (
        52853,
        "d686de1ffc999234a27425f23b88619a772d3ec840feb9d2764a03bf7bf01c92",
    ),
    (0.01, 11): (
        45876,
        "dd47c63731c1901d7099c81b7b111bbd11814a3a8eedc9a81f7edff5541e4e57",
    ),
}


def _frame_digest(frame):
    h = hashlib.sha256()
    h.update(frame.events.tobytes())
    h.update(frame.jobs.data.tobytes())
    h.update(frame.files.data.tobytes())
    return h.hexdigest()


class TestSyntheticFrozenBaseline:
    """The engine-registry refactor must not move a single byte of the
    synthetic engine's output: these digests were captured from the
    monolithic pre-refactor WorkloadGenerator at two (scale, seed)
    pairs, and every future change must keep reproducing them."""

    def test_pre_refactor_digest(self, workload, request):
        scale_seed = request.node.callspec.params["workload"]
        n_events, digest = _FROZEN_SYNTHETIC_DIGESTS[scale_seed]
        assert workload.frame.n_events == n_events
        assert _frame_digest(workload.frame) == digest

    def test_explicit_engine_name_same_bytes(self, workload):
        via_name = WorkloadGenerator(
            workload.scenario, seed=workload.seed, engine="synthetic"
        ).run("direct")
        assert _frame_digest(via_name.frame) == _frame_digest(workload.frame)


class TestIndexEquivalence:
    def test_report_text_identical(self, workload):
        frame = workload.frame
        assert characterize(frame).render() == characterize_legacy(frame).render()

    def test_report_dict_identical(self, workload):
        frame = workload.frame
        new = json.dumps(characterize(frame).to_dict(), sort_keys=True)
        old = json.dumps(characterize_legacy(frame).to_dict(), sort_keys=True)
        assert new == old


#: every per-family analyzer the oracle also implements, paired with the
#: oracle's copy
_FAMILY_PAIRS = {
    name: (getattr(module, name), getattr(legacy_oracle, name))
    for module, names in (
        (jobstats, ("node_count_distribution", "files_per_job_table",
                    "max_files_one_job")),
        (filestats, ("population", "file_size_cdf", "file_class_labels")),
        (sequentiality, ("per_file_regularity",)),
        (intervals, ("per_file_distinct_intervals",
                     "per_file_distinct_request_sizes",
                     "interval_size_table", "request_size_table")),
        (sharing, ("concurrently_multi_node_files", "interjob_shared_files",
                   "sharing_per_file")),
        (modes, ("mode_usage",)),
    )
    for name in names
}
for _kind in (EventKind.READ, EventKind.WRITE):
    _FAMILY_PAIRS[f"request_size_summary[{_kind.name.lower()}]"] = (
        partial(requests.request_size_summary, kind=_kind),
        partial(legacy_oracle.request_size_summary, kind=_kind),
    )


@pytest.fixture(
    scope="module",
    params=[("ames1993", 0.02, 5), ("ames1993", 0.01, 11), ("drift", 0.005, 3)],
    ids=["scale02-seed5", "scale01-seed11", "drift0005-seed3"],
)
def family_frame(request):
    name, scale, seed = request.param
    return WorkloadGenerator(get_scenario(name, scale), seed=seed).run("direct").frame


def _assert_same(got, want, where="result"):
    """Exact equality: array values and dtypes, dict contents, CDF values
    and cumulative weights, dataclass fields, and scalar types."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert got.dtype == want.dtype, where
        assert np.array_equal(got, want), where
    elif isinstance(want, EmpiricalCDF):
        assert isinstance(got, EmpiricalCDF), where
        _assert_same(got._values, want._values, f"{where}.values")
        _assert_same(got._cum, want._cum, f"{where}.cum")
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            _assert_same(
                getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}"
            )
    elif isinstance(want, dict):
        assert isinstance(got, dict), where
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want), where
        assert got == want, where


class TestFamilyOracle:
    """Each per-family analyzer returns exactly what the oracle's copy
    returns — not only when every family is bundled into one report."""

    @pytest.mark.parametrize("name", list(_FAMILY_PAIRS))
    def test_matches_oracle(self, family_frame, name):
        ours, oracle = _FAMILY_PAIRS[name]
        _assert_same(ours(family_frame), oracle(family_frame), name)


#: sha256 of ``render_all(frame)``, of ``validate_workload(frame).render()``
#: and of the sorted-key JSON of ``coalesce_trace(frame)``, captured while
#: the per-family analyzers still read a shared trace index
_FROZEN_COMMAND_DIGESTS = {
    (0.02, 5): (
        "d24f2c507194a708e2662c30ad7495a39096ea0156c88ef6d8e362c08154a29d",
        "e5141f1c73f78db46f21ff95a22cf844b20e7d83fa6d5d27fee24f5f30504b36",
        # 52,421 simple requests coalesce to 245 strided ones
        "913c5ae8d200133fe2bc55ae8d7c71789bad390103050f49b65347276f06c44e",
    ),
    (0.01, 11): (
        "1b6bbb14ef48b42eae91f62da54059490347cc78d56b809ce68138c7579e0ec7",
        "ae48759b7fcf0a5a1a3fae22bae8de641594ca69f20787d6e0baf39f271819f5",
        # 44,744 simple requests coalesce to 2,731 strided ones
        "eb7777ec8795e502b9567100111de81898f6e22b65ee71e6fe9cad74149a4ed4",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestFrozenCommands:
    """What `repro figures`, `repro validate` and `repro strided` print is
    frozen at both fixture seeds/scales."""

    def _frozen(self, request):
        return _FROZEN_COMMAND_DIGESTS[request.node.callspec.params["workload"]]

    def test_render_all(self, workload, request):
        text = render_all(workload.frame)
        assert _sha(text.encode()) == self._frozen(request)[0]

    def test_validate(self, workload, request):
        text = validate_workload(workload.frame).render()
        assert _sha(text.encode()) == self._frozen(request)[1]

    def test_strided(self, workload, request):
        result = coalesce_trace(workload.frame)
        data = json.dumps(dataclasses.asdict(result), sort_keys=True)
        assert _sha(data.encode()) == self._frozen(request)[2]


#: sha256 of render() and of the sorted-key to_dict() JSON, captured while
#: the per-family indexed engine still shipped beside the fused one (both
#: produced these bytes) — every path into characterize() must keep
#: reproducing them
_FROZEN_REPORT_DIGESTS = {
    (0.02, 5): (
        "0c95f389a27f0c252c010a5da211d10d25c686def9931f2ba8ca1691e8ef9100",
        "f91c3a1f399d3d746eaf2025bf054857b9a1b8da6cbb4083b7dc865d3037ef4e",
    ),
    (0.01, 11): (
        "de3881251a11fd96fac0e27e1e5344e4943cb5be08a1feaeefd8daca25bef77c",
        "1377fe603c92429f20ccfe43f10b0f07ee61093ca7cb202e10cf34ec7c332cf2",
    ),
}


def _report_digests(report):
    text = report.render().encode()
    data = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest(), hashlib.sha256(data).hexdigest()


def _store_report(frame, tmp_path):
    from repro.trace.store import TraceStore, write_store

    path = tmp_path / "trace.store"
    write_store(frame, path, chunk_size=512)
    with TraceStore(path) as store:
        return characterize(store)


def _chunked_report(frame, tmp_path):
    from repro.trace.store import FrameSource

    return characterize(FrameSource(frame, chunk_size=777))


#: every way into characterize() the frozen digests are asserted on
_REPORT_PATHS = {
    "serial": lambda frame, tmp_path: characterize(frame),
    "chunks777": _chunked_report,
    "store": _store_report,
}


def _raw_rows(acc):
    """The most not-yet-collapsed rows any deferred part of ``acc`` holds."""
    held = 0
    for name, parts in acc._parts.items():
        agg = acc._agg_ids.get(name)
        held = max(held, sum(
            len(p[0]) if isinstance(p, tuple) else len(p)
            for p in parts if id(p) != agg
        ))
    return held


class TestFrozenReport:
    """The report's bytes are frozen: whole-frame, chunked and streamed
    from disk all hash to the digests captured before the indexed and
    windowed engines were deleted."""

    @pytest.mark.parametrize("path", list(_REPORT_PATHS))
    def test_digest(self, workload, path, tmp_path, request):
        scale_seed = request.node.callspec.params["workload"]
        report = _REPORT_PATHS[path](workload.frame, tmp_path)
        assert _report_digests(report) == _FROZEN_REPORT_DIGESTS[scale_seed]

    def test_event_budget_bounds_raw_rows(self, workload, monkeypatch, request):
        from repro.core import streaming
        from repro.trace.store import FrameSource

        budget, chunk = 4096, 500
        monkeypatch.setattr(streaming, "_COLLAPSE_EVENTS", budget)
        source = FrameSource(workload.frame, chunk_size=chunk)
        acc = streaming.ChunkAccumulator()
        for i in range(source.n_chunks):
            if i % 3 == 2:
                # the service daemon's out-of-order path: a parked
                # one-chunk partial merged in once its turn comes
                parked = streaming.ChunkAccumulator()
                parked.update(source.chunk(i))
                acc.merge(parked)
            else:
                acc.update(source.chunk(i))
            assert _raw_rows(acc) < budget + chunk, f"after chunk {i}"
        report = streaming.finalize_fused(acc, source.jobs, source.files)
        scale_seed = request.node.callspec.params["workload"]
        assert _report_digests(report) == _FROZEN_REPORT_DIGESTS[scale_seed]


#: sha256 over the fig8 then fig9 series (name, xs bytes, ys bytes, in
#: dict order), captured while fig9 still had three selectable engines
#: and the CLI's fig8 ran the per-buffer-count replay
_FROZEN_CACHE_FIGURE_DIGESTS = {
    (0.02, 5): "960dc76206ef8c0c757f38ee047ca247dd80479cce65d8e432414c95ad3c0da9",
    (0.01, 11): "9c165d13d6845b258345f45911dea33254a74c4eb04c3fc2c67b1d8889dc4682",
}


class TestFrozenCacheFigures:
    """Figures 8 and 9 are frozen: the LRU stack-distance passes
    and FIFO's dense-key replay (captured while FIFO still replayed
    through the dictionary policy) must keep producing these bytes,
    whatever ``workers`` a caller still passes (it is ignored)."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_digest(self, workload, workers, request):
        h = hashlib.sha256()
        for figure in ("fig8", "fig9"):
            series = figure_series(workload.frame, figure, workers=workers)
            for name, (xs, ys) in series.items():
                h.update(name.encode())
                h.update(xs.tobytes())
                h.update(ys.tobytes())
        scale_seed = request.node.callspec.params["workload"]
        assert h.hexdigest() == _FROZEN_CACHE_FIGURE_DIGESTS[scale_seed]


#: sha256 of the sorted-key JSON of ``simulate_combined(frame)``, captured
#: while §4.8 still replayed its three caches through per-request
#: dictionaries
_FROZEN_COMBINED_DIGESTS = {
    (0.02, 5): "6c66f4e8700f89dd0efd2ff124c3842872bfec3193cd09f5e278819d0ef79632",
    (0.01, 11): "97d29711256766e348bc40f5abfa789d7c5ad08ef30566cb95a8248190faff72",
}


class TestFrozenCombined:
    """The §4.8 combined experiment is frozen: its compute layer's stack
    pass and its two I/O-node runs on the Figure 9 engine must keep
    producing the result of the dictionary replay they replaced."""

    def test_digest(self, workload, request):
        from repro.caching import simulate_combined

        result = simulate_combined(workload.frame)
        data = json.dumps(dataclasses.asdict(result), sort_keys=True)
        scale_seed = request.node.callspec.params["workload"]
        assert _sha(data.encode()) == _FROZEN_COMBINED_DIGESTS[scale_seed]


#: sha256 of the §5 disk experiments at 500 buffers, captured while both
#: still replayed their I/O-node caches through per-request LRU
#: dictionaries: the sorted-key JSON of ``simulate_disk_time(frame, 500)``'s
#: (cacheless, cached) pair, and ``compare_latency(frame)``'s request
#: counts, totals and latency bytes (uncached, then cached)
_FROZEN_DISK_DIGESTS = {
    (0.02, 5): (
        "70d17115d6a2bd8181042f1da7b5d9081d267298777694e71ddef8deb41401e8",
        "9cfd142aab3403780d9b44f91920e7033d630a51d66d1280202303b49c5c6ad0",
    ),
    (0.01, 11): (
        "2dd1304e7317a6de5c95ab2e2178cfd3627e4e1dd8b9b04de31f494959dc114c",
        "8a5ba2a8a68baefb641cd92f26594102f669848a205a1e626169c395b203d060",
    ),
}


class TestFrozenDiskExperiments:
    """The §5 disk-time and latency experiments are frozen: scored by
    Figure 9's LRU pass and charged by one disk-operation walk, they must
    keep producing the results of the dictionary replays they replaced."""

    def test_disk_time_digest(self, workload, request):
        from repro.caching import simulate_disk_time

        raw, cached = simulate_disk_time(workload.frame, 500)
        data = json.dumps(
            [dataclasses.asdict(raw), dataclasses.asdict(cached)], sort_keys=True
        )
        scale_seed = request.node.callspec.params["workload"]
        assert _sha(data.encode()) == _FROZEN_DISK_DIGESTS[scale_seed][0]

    def test_latency_digest(self, workload, request):
        from repro.caching import compare_latency

        cmp = compare_latency(workload.frame)
        h = hashlib.sha256()
        for res in (cmp.uncached, cmp.cached):
            h.update(json.dumps([res.n_requests, res.total_seconds]).encode())
            h.update(np.ascontiguousarray(res.latencies, dtype="<f8").tobytes())
        scale_seed = request.node.callspec.params["workload"]
        assert h.hexdigest() == _FROZEN_DISK_DIGESTS[scale_seed][1]


class TestStreamingEquivalence:
    """The out-of-core chunked path reproduces the in-memory report
    byte for byte — at both fixture seeds/scales, through a wrapped
    frame and through a real on-disk store."""

    def test_frame_source_report_identical(self, workload):
        from repro.trace.store import FrameSource

        frame = workload.frame
        ref = characterize(frame)
        for chunk_size in (777, 1 << 18):
            rep = characterize(FrameSource(frame, chunk_size=chunk_size))
            assert rep.render() == ref.render()
            assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(
                ref.to_dict(), sort_keys=True
            )

    def test_store_report_identical(self, workload, tmp_path):
        from repro.trace.store import TraceStore, write_store

        frame = workload.frame
        ref = characterize(frame)
        path = tmp_path / "trace.store"
        write_store(frame, path, chunk_size=512)
        with TraceStore(path) as store:
            serial = characterize(store)
        assert serial.render() == ref.render()
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            ref.to_dict(), sort_keys=True
        )

    def test_store_request_stream_identical(self, workload, tmp_path):
        from repro.caching.io_node import request_stream
        from repro.trace.store import TraceStore, write_store

        frame = workload.frame
        path = tmp_path / "trace.store"
        write_store(frame, path, chunk_size=999)
        ref = request_stream(frame)
        with TraceStore(path) as store:
            got = request_stream(store)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


# -- the full pipeline: frozen output and the step-replay oracle --------------


@pytest.fixture(
    scope="module",
    params=[("tiny", 5), ("ames01", 11)],
    ids=["tiny-seed5", "ames01-seed11"],
)
def full_case(request):
    kind, seed = request.param
    scenario = tiny(1.0) if kind == "tiny" else ames1993(0.01)
    return scenario, seed


@pytest.fixture(scope="module")
def full_serial(full_case):
    scenario, seed = full_case
    return WorkloadGenerator(scenario, seed=seed).run("full")


#: simulation-state counters of one observed run("full")
_SIM_COUNTERS = (
    "cfs.opens", "cfs.closes", "cfs.creates",
    "cfs.reads", "cfs.writes", "cfs.bytes_read", "cfs.bytes_written",
    "cfs.cache.hits", "cfs.cache.misses",
    "cfs.cache.evictions", "cfs.cache.writes_through",
    "machine.disk_bytes_allocated", "machine.collector_stamps",
    "trace.calls_traced", "workload.replay_actions", "workload.events",
)

#: run("full") output captured while the sharded replay still existed
#: (and matched it): sha256 of the raw trace bytes, _frame_digest of the
#: frame, fs.cache_stats() as (hits, misses, evictions, writes_through),
#: disk bytes used, and the _SIM_COUNTERS values in order
_FROZEN_FULL_PIPELINE = {
    ("tiny", 5): (
        "d6d166289f7895068a998ad5ed34a0a92b3eb7677b8a502ed6605f9cc7076167",
        "0d44c7b5b30c7500aefc2cd6f8bef666a51b0eb08256cf02f792edd9781c1e4d",
        (332, 74, 0, 10),
        40_960,
        (5, 5, 2, 336, 2, 255_416, 37_399, 332, 74, 0, 10,
         40_960, 6, 388, 388, 388),
    ),
    ("ames01", 11): (
        "8134397c596ec5b2ddc1e28fe451cea94e2cd62e04eb30ef3e196eed31e12ab0",
        "2179aa11106f42d36e3bd9732666e848f66ac0d811280eb8a6521e3d0821cdcc",
        (40_217, 77_196, 72_076, 101_593),
        263_139_328,
        (535, 535, 266, 3_141, 41_603, 53_088_475, 262_317_314,
         40_217, 77_196, 72_076, 101_593,
         263_139_328, 567, 48_685, 45_876, 48_685),
    ),
}


def _frozen_full(request):
    return _FROZEN_FULL_PIPELINE[request.node.callspec.params["full_case"]]


class TestFrozenFullPipeline:
    """run("full") is frozen: the raw trace, the frame, the CFS end state
    and the simulation counters hash or count to the values captured
    before the full pipeline went serial-only."""

    def test_raw_trace_and_frame_digests(self, full_serial, request):
        raw, frame, _, _, _ = _frozen_full(request)
        assert hashlib.sha256(full_serial.raw.to_bytes()).hexdigest() == raw
        assert _frame_digest(full_serial.frame) == frame

    def test_cfs_end_state(self, full_serial, request):
        _, _, cache, used, _ = _frozen_full(request)
        stats = full_serial.fs.cache_stats()
        assert (
            stats.hits, stats.misses, stats.evictions, stats.writes_through
        ) == cache
        assert full_serial.fs.disk_usage()[0] == used

    def test_sim_counters(self, full_case, request):
        scenario, seed = full_case
        ob = obs.enable()
        try:
            WorkloadGenerator(scenario, seed=seed).run("full")
            counters = ob.counters
        finally:
            obs.disable()
        frozen = _frozen_full(request)[4]
        assert tuple(counters.get(k) for k in _SIM_COUNTERS) == frozen

    def test_step_oracle_replays_the_same_trace(self, full_case, full_serial):
        scenario, seed = full_case
        step = run_full_step(WorkloadGenerator(scenario, seed=seed))
        assert step.raw.to_bytes() == full_serial.raw.to_bytes()
        assert _frame_digest(step.frame) == _frame_digest(full_serial.frame)
        assert step.fs.cache_stats() == full_serial.fs.cache_stats()

    def test_shards_argument_is_ignored(self, full_case, full_serial):
        # the pipeline benchmark's traced tour passes shards=<cores>
        scenario, seed = full_case
        run = WorkloadGenerator(scenario, seed=seed).run("full", shards=2)
        assert run.raw.to_bytes() == full_serial.raw.to_bytes()


# -- strided-run detector: vectorized vs the reference loop (strided_oracle) --

random_streams = st.lists(
    st.tuples(st.integers(0, 64), st.integers(1, 8)), min_size=0, max_size=50
)

# diffs drawn from a tiny alphabet with one request size produce long
# strided runs — the regime coalesce_runs exists for
run_rich_diffs = st.lists(st.sampled_from([4, 8, 12]), min_size=1, max_size=60)


class TestStridedDetectorProperty:
    @given(random_streams)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_arbitrary_streams(self, pairs):
        offsets = np.array([p[0] for p in pairs], dtype=np.int64)
        sizes = np.array([p[1] for p in pairs], dtype=np.int64)
        assert coalesce_stream(offsets, sizes) == strided_oracle.coalesce_stream(
            offsets, sizes
        )

    @given(run_rich_diffs, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_run_rich_streams(self, diffs, size):
        offsets = np.concatenate(
            [[0], np.cumsum(np.asarray(diffs, dtype=np.int64))]
        )
        sizes = np.full(len(offsets), size, dtype=np.int64)
        assert coalesce_stream(offsets, sizes) == strided_oracle.coalesce_stream(
            offsets, sizes
        )

    @given(random_streams)
    @settings(max_examples=200, deadline=None)
    def test_runs_partition_the_stream(self, pairs):
        offsets = np.array([p[0] for p in pairs], dtype=np.int64)
        sizes = np.array([p[1] for p in pairs], dtype=np.int64)
        starts, counts = coalesce_runs(offsets, sizes)
        assert int(counts.sum()) == len(offsets)
        # runs tile the stream: each starts where the previous ended
        if len(counts):
            expected = np.concatenate(([0], np.cumsum(counts)[:-1]))
            assert starts.tolist() == expected.tolist()
        else:
            assert starts.tolist() == []
