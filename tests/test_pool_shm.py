"""The zero-copy pool: shared-memory specs, spawn fallback, crash context.

Three promises are pinned here.  First, :mod:`repro.util.shm` round-trips
every shareable shape (frames, chunked sources, stores, request-stream
tuples) through a shared-memory spec without changing a byte.  Second,
on a platform without ``fork`` the pool falls back to spawn workers
attached over shared memory — and the results stay byte-identical to
serial.  Third, a worker that dies mid-scan surfaces as
:class:`~repro.errors.PoolTaskError` naming the chunk range it was
scanning, and the ``_SHARED`` module global never outlives the pool.
"""

import json

import numpy as np
import pytest

import repro.util.pool as pool_mod
from repro.core import characterize
from repro.core.streaming import _scan_parallel
from repro.errors import PoolTaskError
from repro.trace.store import FrameSource, TraceStore, write_store
from repro.util import shm
from repro.util.pool import map_tasks


@pytest.fixture
def no_fork(monkeypatch):
    """Pretend the platform cannot fork, forcing the spawn+shm path."""
    monkeypatch.setattr(pool_mod, "fork_available", lambda: False)


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestShareableRoundTrip:
    def test_frame_round_trips(self, small_frame):
        spec, cleanup = shm.export_shareable(small_frame)
        try:
            assert spec["kind"] == "frame"
            clone = shm.attach_shareable(spec)
            assert np.array_equal(clone.events, small_frame.events)
            assert np.array_equal(clone.jobs.data, small_frame.jobs.data)
            assert np.array_equal(clone.files.data, small_frame.files.data)
            assert clone.header.block_size == small_frame.header.block_size
        finally:
            cleanup()

    def test_frame_source_round_trips(self, small_frame):
        src = FrameSource(small_frame, chunk_size=100)
        spec, cleanup = shm.export_shareable(src)
        try:
            assert spec["kind"] == "frame_source"
            clone = shm.attach_shareable(spec)
            assert clone.chunk_size == 100
            assert clone.n_chunks == src.n_chunks
            assert np.array_equal(clone.chunk(0), src.chunk(0))
        finally:
            cleanup()

    def test_store_spec_is_just_the_path(self, small_frame, tmp_path):
        path = tmp_path / "t.store"
        write_store(small_frame, path, chunk_size=64)
        with TraceStore(path) as store:
            spec, cleanup = shm.export_shareable(store)
            try:
                assert spec == {"kind": "store", "path": str(path)}
                clone = shm.attach_shareable(spec)
                assert np.array_equal(clone.chunk(0), store.chunk(0))
            finally:
                cleanup()

    def test_array_tuple_round_trips(self):
        stream = (
            np.arange(10, dtype=np.int64),
            np.arange(10, dtype=np.int64) * 2,
            np.ones(10, dtype=bool),
        )
        spec, cleanup = shm.export_shareable(stream)
        try:
            assert spec["kind"] == "arrays"
            clone = shm.attach_shareable(spec)
            assert isinstance(clone, tuple)
            for a, b in zip(stream, clone):
                assert np.array_equal(a, b)
                assert a.dtype == b.dtype
            # workers must not scribble on the exporter's pages
            assert not clone[0].flags.writeable
        finally:
            cleanup()

    def test_unknown_objects_fall_back_to_pickle(self):
        spec, cleanup = shm.export_shareable({"plain": "dict"})
        try:
            assert spec["kind"] == "pickle"
            assert shm.attach_shareable(spec) == {"plain": "dict"}
        finally:
            cleanup()

    def test_attach_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="spec kind"):
            shm.attach_shareable({"kind": "telepathy"})


class TestSpawnFallback:
    """fork_available() false → spawn workers attach over shared memory,
    results byte-identical to serial."""

    def test_characterize_fused_identical(self, small_frame, no_fork):
        serial = characterize(small_frame)
        fanned = characterize(small_frame, workers=2)
        assert serial.render() == fanned.render()
        assert _dumps(serial) == _dumps(fanned)
        assert pool_mod._SHARED is None

    def test_store_scan_identical(self, small_frame, tmp_path, no_fork):
        path = tmp_path / "t.store"
        write_store(small_frame, path, chunk_size=64)
        ref = characterize(small_frame)
        with TraceStore(path) as store:
            fanned = characterize(store, workers=2)
        assert fanned.render() == ref.render()
        assert _dumps(fanned) == _dumps(ref)

    def test_sweep_lines_identical(self, small_frame, no_fork):
        from repro.caching.io_node import request_stream
        from repro.caching.sweeps import sweep_lines

        stream = request_stream(small_frame)
        counts = [1, 8, 64]
        lines = ["lru", "fifo"]
        serial = sweep_lines(None, counts, lines, workers=1, stream=stream)
        fanned = sweep_lines(None, counts, lines, workers=2, stream=stream)
        for a, b in zip(serial, fanned):
            assert np.array_equal(a.hit_rates, b.hit_rates)


class _ExplodingSource(FrameSource):
    """Chunk 1 always raises — a worker dies mid-scan."""

    def chunk(self, i):
        if i == 1:
            raise RuntimeError("disk on fire")
        return super().chunk(i)


class TestWorkerCrash:
    def test_crash_names_the_chunk_range(self, small_frame):
        src = _ExplodingSource(small_frame, chunk_size=-(-small_frame.n_events // 4))
        with pytest.raises(PoolTaskError) as info:
            _scan_parallel(src, workers=4)
        # the failing task is the one scanning the range containing chunk 1
        assert info.value.task == "scan[1:2)"
        assert "scan[1:2)" in str(info.value)
        assert pool_mod._SHARED is None

    def test_crash_names_the_chunk_range_serially(self, small_frame):
        src = _ExplodingSource(small_frame, chunk_size=-(-small_frame.n_events // 4))
        with pytest.raises(RuntimeError, match="disk on fire"):
            _scan_parallel(src, workers=None)


class TestSharedRelease:
    def test_shared_global_released_after_fork_pool(self, small_frame):
        characterize(small_frame, workers=2)
        assert pool_mod._SHARED is None

    def test_shared_global_released_on_task_error(self):
        def boom(shared):
            raise ValueError("exploded")

        def fine(shared):
            return shared

        with pytest.raises(PoolTaskError):
            map_tasks({"fine": fine, "boom": boom}, 7, workers=2)
        assert pool_mod._SHARED is None
