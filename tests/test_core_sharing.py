"""Tests for repro.core.sharing (Figure 7)."""

import numpy as np
import pytest

from repro.core.figures import family_series
from repro.core.sharing import concurrently_multi_node_files, sharing_per_file
from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind, OpenFlags, Record


def _use(file, node, pairs, t_open, t_close, kind=EventKind.READ,
         flags=OpenFlags.READ):
    records = [
        Record(time=t_open, node=node, job=0, kind=EventKind.OPEN, file=file,
               mode=0, flags=int(flags)),
        Record(time=t_close, node=node, job=0, kind=EventKind.CLOSE, file=file),
    ]
    span = t_close - t_open
    for i, (off, sz) in enumerate(pairs):
        records.append(
            Record(time=t_open + span * (i + 1) / (len(pairs) + 1), node=node,
                   job=0, kind=kind, file=file, offset=off, size=sz)
        )
    return records


class TestConcurrencyDetection:
    def test_overlapping_opens_detected(self):
        records = _use(0, 0, [(0, 100)], 0.0, 2.0) + _use(0, 1, [(0, 100)], 1.0, 3.0)
        frame = TraceFrame.from_records(records)
        assert list(concurrently_multi_node_files(frame)) == [0]

    def test_disjoint_opens_not_concurrent(self):
        records = _use(0, 0, [(0, 100)], 0.0, 1.0) + _use(0, 1, [(0, 100)], 2.0, 3.0)
        frame = TraceFrame.from_records(records)
        assert len(concurrently_multi_node_files(frame)) == 0

    def test_single_node_files_excluded(self):
        records = _use(0, 0, [(0, 100)], 0.0, 1.0)
        frame = TraceFrame.from_records(records)
        assert len(concurrently_multi_node_files(frame)) == 0

    def test_missing_close_gives_zero_length_window(self):
        # node 0 opens at t=0 and reads at t=5 but never closes: its
        # window is clamped to [0, 0], so node 1's [2, 3] does not overlap
        records = _use(0, 1, [(0, 100)], 2.0, 3.0) + [
            Record(time=0.0, node=0, job=0, kind=EventKind.OPEN, file=0,
                   mode=0, flags=int(OpenFlags.READ)),
            Record(time=5.0, node=0, job=0, kind=EventKind.READ, file=0,
                   offset=0, size=100),
        ]
        frame = TraceFrame.from_records(records)
        assert len(concurrently_multi_node_files(frame)) == 0


class TestSharingFractions:
    def test_broadcast_fully_byte_shared(self):
        records = _use(0, 0, [(0, 1000)], 0.0, 2.0) + _use(0, 1, [(0, 1000)], 0.0, 2.0)
        res = sharing_per_file(TraceFrame.from_records(records))
        assert res.byte_shared[0] == 1.0
        assert res.block_shared[0] == 1.0

    def test_disjoint_segments_unshared_bytes(self):
        records = _use(0, 0, [(0, 4096)], 0.0, 2.0) + _use(0, 1, [(4096, 4096)], 0.0, 2.0)
        res = sharing_per_file(TraceFrame.from_records(records))
        assert res.byte_shared[0] == 0.0
        assert res.block_shared[0] == 0.0  # block-aligned segments

    def test_interleaved_block_shared_not_byte_shared(self):
        # 100-byte records alternating between nodes: bytes disjoint, but
        # both nodes touch block 0 — the paper's cache-friendly signature
        a = [(i * 100, 100) for i in range(0, 8, 2)]
        b = [(i * 100, 100) for i in range(1, 8, 2)]
        records = _use(0, 0, a, 0.0, 2.0) + _use(0, 1, b, 0.0, 2.0)
        res = sharing_per_file(TraceFrame.from_records(records))
        assert res.byte_shared[0] == 0.0
        assert res.block_shared[0] == 1.0

    def test_partial_overlap(self):
        records = _use(0, 0, [(0, 150)], 0.0, 2.0) + _use(0, 1, [(100, 100)], 0.0, 2.0)
        res = sharing_per_file(TraceFrame.from_records(records))
        # covered [0,200), shared [100,150)
        assert res.byte_shared[0] == pytest.approx(50 / 200)

    def test_same_node_rereads_are_not_sharing(self):
        records = _use(0, 0, [(0, 100), (0, 100)], 0.0, 2.0) + _use(
            0, 1, [(500, 100)], 0.0, 2.0
        )
        res = sharing_per_file(TraceFrame.from_records(records))
        assert res.byte_shared[0] == 0.0

    def test_opened_but_single_node_access(self):
        records = (
            _use(0, 0, [(0, 100)], 0.0, 2.0)
            + _use(0, 1, [], 0.0, 2.0)
        )
        res = sharing_per_file(TraceFrame.from_records(records))
        assert res.byte_shared[0] == 0.0

    def test_no_candidates_rejected(self):
        records = _use(0, 0, [(0, 100)], 0.0, 1.0)
        with pytest.raises(AnalysisError):
            sharing_per_file(TraceFrame.from_records(records))


class TestWorkloadSharing:
    def test_read_files_heavily_shared(self, small_frame):
        # Figure 7: most multi-node read-only files have all bytes shared
        res = sharing_per_file(small_frame)
        ro_bytes, ro_blocks = res.select("ro")
        assert len(ro_bytes) > 0
        assert np.mean(ro_bytes >= 1.0) > 0.35
        # block sharing dominates byte sharing
        assert np.mean(ro_blocks) >= np.mean(ro_bytes)

    def test_cdfs_in_percent(self, small_frame):
        series = family_series("fig7", sharing_per_file(small_frame))
        assert "ro/bytes" in series and "ro/blocks" in series
        for name, (xs, ys) in series.items():
            assert 0 <= xs.min() and xs.max() <= 100, name
