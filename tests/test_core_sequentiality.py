"""Tests for repro.core.sequentiality (Figures 5-6)."""

import numpy as np
import pytest

from repro.core.figures import family_series
from repro.core.sequentiality import per_file_regularity
from repro.errors import AnalysisError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind, Record


def _stream(file, node, pairs, kind=EventKind.READ, t0=0.0):
    """Records for one node's (offset, size) stream against one file."""
    return [
        Record(time=t0 + 0.01 * i, node=node, job=0, kind=kind,
               file=file, offset=off, size=sz)
        for i, (off, sz) in enumerate(pairs)
    ]


class TestPerFileRegularity:
    def test_consecutive_stream(self):
        frame = TraceFrame.from_records(
            _stream(0, 0, [(0, 10), (10, 10), (20, 10)])
        )
        reg = per_file_regularity(frame)
        assert reg.sequential_fraction[0] == 1.0
        assert reg.consecutive_fraction[0] == 1.0

    def test_interleaved_is_sequential_not_consecutive(self, micro_frame):
        reg = per_file_regularity(micro_frame)
        idx = list(reg.file_ids).index(0)
        assert reg.sequential_fraction[idx] == 1.0
        assert reg.consecutive_fraction[idx] == 0.0  # 100B skips between reads

    def test_backwards_stream_is_non_sequential(self):
        frame = TraceFrame.from_records(
            _stream(0, 0, [(100, 10), (50, 10), (0, 10)])
        )
        reg = per_file_regularity(frame)
        assert reg.sequential_fraction[0] == 0.0

    def test_per_node_pooling(self):
        # node 0 consecutive, node 1 non-sequential: file pools to 50/50
        records = _stream(0, 0, [(0, 10), (10, 10)]) + _stream(
            0, 1, [(100, 10), (90, 10)], t0=1.0
        )
        reg = per_file_regularity(TraceFrame.from_records(records))
        assert reg.sequential_fraction[0] == 0.5
        assert reg.n_transitions[0] == 2

    def test_single_request_files_excluded(self):
        records = _stream(0, 0, [(0, 10)]) + _stream(1, 0, [(0, 10), (10, 10)], t0=1.0)
        reg = per_file_regularity(TraceFrame.from_records(records))
        assert list(reg.file_ids) == [1]

    def test_no_transitions_rejected(self):
        frame = TraceFrame.from_records(_stream(0, 0, [(0, 10)]))
        with pytest.raises(AnalysisError):
            per_file_regularity(frame)

    def test_labels_split_by_class(self, micro_frame):
        reg = per_file_regularity(micro_frame)
        by_file = dict(zip(reg.file_ids.tolist(), reg.labels))
        assert by_file[0] == "ro"
        assert by_file[1] == "wo"


class TestWorkloadShape:
    def test_bimodal_spikes(self, small_frame):
        # Figures 5-6: "most files were either entirely sequential (or
        # consecutive) or not at all"
        reg = per_file_regularity(small_frame)
        seq = reg.sequential_fraction
        extreme = np.mean((seq == 0.0) | (seq >= 1.0))
        assert extreme > 0.7

    def test_write_only_more_consecutive_than_read_only(self, small_frame):
        reg = per_file_regularity(small_frame)
        wo = reg.fully_consecutive_fraction("wo")
        ro = reg.fully_consecutive_fraction("ro")
        assert wo > 0.6           # paper: 86%
        assert ro < wo            # paper: 29% vs 86%

    def test_read_write_files_non_sequential(self, small_frame):
        reg = per_file_regularity(small_frame)
        seq, _ = reg.select("rw")
        if len(seq):
            assert seq.mean() < 0.6

    def test_cdfs_keyed_by_class(self, small_frame):
        reg = per_file_regularity(small_frame)
        seq = family_series("fig5", reg)
        con = family_series("fig6", reg)
        assert "wo" in seq and "ro" in seq
        assert set(con) == set(seq)
        assert seq["wo"][0].max() <= 100.0
        assert con["wo"][0].min() >= 0.0
