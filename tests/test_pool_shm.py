"""The shared-object pool: the no-fork path, crash context, release.

Two promises are pinned here.  First, on a platform without ``fork``
the pool runs every batch serially in-process — results byte-identical
to a serial run, no worker trace streams.  Second, a worker that dies
mid-scan surfaces as :class:`~repro.errors.PoolTaskError` naming the
chunk range it was scanning, and the ``_SHARED`` module global never
outlives the pool.
"""

import json

import numpy as np
import pytest

import repro.util.pool as pool_mod
from repro import obs
from repro.core import characterize
from repro.core.streaming import _scan_parallel
from repro.errors import PoolTaskError
from repro.obs import TraceContext
from repro.trace.store import FrameSource, TraceStore, write_store
from repro.util.pool import map_tasks


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def no_fork(monkeypatch):
    """Pretend the platform cannot fork, forcing the serial path."""
    monkeypatch.setattr(pool_mod, "fork_available", lambda: False)


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestNoFork:
    """fork_available() false → the pool runs every batch serially, with
    results byte-identical to a serial run and no worker trace streams."""

    def test_characterize_runs_serially(self, small_frame, no_fork):
        serial = characterize(small_frame)
        observer = obs.enable(TraceContext.root())
        fanned = characterize(small_frame, workers=2)
        assert serial.render() == fanned.render()
        assert _dumps(serial) == _dumps(fanned)
        assert observer.counters["pool.serial_batches"] == 1
        assert "pool.steal_batches" not in observer.counters
        assert not observer.trace_payload().get("children")
        assert pool_mod._SHARED is None

    def test_store_scan_runs_serially(self, small_frame, tmp_path, no_fork):
        path = tmp_path / "t.store"
        write_store(small_frame, path, chunk_size=64)
        ref = characterize(small_frame)
        observer = obs.enable(TraceContext.root())
        with TraceStore(path) as store:
            fanned = characterize(store, workers=2)
        assert fanned.render() == ref.render()
        assert _dumps(fanned) == _dumps(ref)
        assert observer.counters["pool.serial_batches"] == 1
        assert not observer.trace_payload().get("children")

    def test_sweep_lines_run_serially(self, small_frame, no_fork):
        from repro.caching.io_node import request_stream
        from repro.caching.sweeps import sweep_lines

        stream = request_stream(small_frame)
        counts = [1, 8, 64]
        lines = ["lru", "fifo"]
        serial = sweep_lines(None, counts, lines, workers=1, stream=stream)
        observer = obs.enable(TraceContext.root())
        fanned = sweep_lines(None, counts, lines, workers=2, stream=stream)
        for a, b in zip(serial, fanned):
            assert np.array_equal(a.hit_rates, b.hit_rates)
        assert observer.counters["pool.serial_batches"] == 1
        assert not observer.trace_payload().get("children")


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
