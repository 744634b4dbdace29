"""Tests for repro.trace.frame."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.frame import FileTable, JobTable, TraceFrame
from repro.trace.records import NO_VALUE, EventKind, OpenFlags, Record


def _r(t, kind, node=0, job=0, **kw):
    return Record(time=t, node=node, job=job, kind=kind, **kw)


class TestJobTable:
    def test_from_rows(self):
        jt = JobTable.from_rows([(0, 0.0, 5.0, 8, True), (1, 1.0, 2.0, 1, False)])
        assert len(jt) == 2
        assert jt.duration(0) == 5.0
        assert jt.span() == (0.0, 5.0)

    def test_traced_selector(self):
        jt = JobTable.from_rows([(0, 0, 1, 1, True), (1, 0, 1, 1, False)])
        assert list(jt.traced["job"]) == [0]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(TraceError):
            JobTable.from_rows([(0, 0, 1, 1, True), (0, 0, 1, 1, True)])

    def test_rejects_negative_duration(self):
        with pytest.raises(TraceError):
            JobTable.from_rows([(0, 5.0, 1.0, 1, True)])

    def test_rejects_zero_nodes(self):
        with pytest.raises(TraceError):
            JobTable.from_rows([(0, 0, 1, 0, True)])

    def test_unknown_job_lookup(self):
        jt = JobTable.from_rows([(0, 0, 1, 1, True)])
        with pytest.raises(KeyError):
            jt.duration(99)


class TestFileTable:
    def test_temporary_detection(self):
        from repro.trace.frame import FILE_DTYPE

        arr = np.zeros(3, dtype=FILE_DTYPE)
        arr[0] = (0, 5, 5, 100)       # created and deleted by job 5 -> temp
        arr[1] = (1, 5, NO_VALUE, 10)  # never deleted
        arr[2] = (2, NO_VALUE, 7, 10)  # deleted by a job that didn't create it
        ft = FileTable(arr)
        assert list(ft.temporary) == [True, False, False]


class TestTraceFrameConstruction:
    def test_from_records_sorts(self):
        records = [
            _r(2.0, EventKind.CLOSE, file=1),
            _r(1.0, EventKind.OPEN, file=1, mode=0, flags=int(OpenFlags.READ)),
        ]
        frame = TraceFrame.from_records(records)
        assert frame.is_time_sorted()
        assert frame.events["kind"][0] == EventKind.OPEN

    def test_from_arrays_checks_lengths(self):
        with pytest.raises(TraceError):
            TraceFrame.from_arrays(
                time=np.zeros(2),
                node=np.zeros(1, dtype=np.int32),
                job=np.zeros(2, dtype=np.int32),
                file=np.zeros(2, dtype=np.int32),
                kind=np.zeros(2, dtype=np.uint8),
                offset=np.zeros(2, dtype=np.int64),
                size=np.zeros(2, dtype=np.int64),
            )

    def test_derives_jobs_from_markers(self):
        records = [
            _r(0.0, EventKind.JOB_START, job=3, size=16, offset=0),
            _r(5.0, EventKind.JOB_END, job=3, size=0, offset=0),
        ]
        frame = TraceFrame.from_records(records)
        assert len(frame.jobs) == 1
        row = frame.jobs.data[0]
        assert row["job"] == 3 and row["nodes"] == 16
        assert not row["traced"]  # no file events

    def test_derives_file_table(self, micro_frame):
        ft = micro_frame.files
        assert len(ft) == 3
        by_id = {int(r["file"]): r for r in ft.data}
        assert by_id[1]["creator_job"] == 0
        assert by_id[1]["deleter_job"] == 0
        assert by_id[1]["final_size"] == 300
        assert by_id[0]["final_size"] == 400  # 4 records of 100B read
        assert by_id[0]["deleter_job"] == NO_VALUE


class TestSelection:
    def test_kind_selectors(self, micro_frame):
        assert len(micro_frame.reads) == 4
        assert len(micro_frame.writes) == 3
        assert len(micro_frame.transfers) == 7
        assert len(micro_frame.opens) == 4
        assert len(micro_frame.closes) == 4

    def test_for_job(self, micro_frame):
        sub = micro_frame.for_job(1)
        assert len(sub.jobs) == 1
        assert set(np.unique(sub.events["job"])) == {1}

    def test_for_file(self, micro_frame):
        ev = micro_frame.for_file(1)
        assert (ev["file"] == 1).all()
        assert len(ev) == 6  # open + 3 writes + close + delete

    def test_time_span_prefers_job_table(self, micro_frame):
        assert micro_frame.time_span() == (0.0, 1.8)


class TestValidation:
    def test_valid_frame_passes(self, micro_frame):
        micro_frame.validate()

    def test_unsorted_fails(self, micro_frame):
        ev = micro_frame.events.copy()
        ev["time"][0], ev["time"][-1] = ev["time"][-1], ev["time"][0]
        frame = TraceFrame(ev, jobs=micro_frame.jobs)
        with pytest.raises(TraceError):
            frame.validate()

    def test_bad_open_mode_fails(self, micro_frame):
        ev = micro_frame.events.copy()
        opens = ev["kind"] == EventKind.OPEN
        ev["mode"][np.nonzero(opens)[0][0]] = 7
        frame = TraceFrame(ev, jobs=micro_frame.jobs)
        with pytest.raises(TraceError):
            frame.validate()


class TestOfKindCache:
    def test_same_view_returned(self, micro_frame):
        a = micro_frame.of_kind(EventKind.READ, EventKind.WRITE)
        b = micro_frame.of_kind(EventKind.READ, EventKind.WRITE)
        assert a is b

    def test_kind_order_insensitive(self, micro_frame):
        a = micro_frame.of_kind(EventKind.READ, EventKind.WRITE)
        b = micro_frame.of_kind(EventKind.WRITE, EventKind.READ)
        assert a is b

    def test_views_are_read_only(self, micro_frame):
        view = micro_frame.of_kind(EventKind.OPEN)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view["time"] = 0.0

    def test_transfers_property_is_cached_view(self, micro_frame):
        assert micro_frame.transfers is micro_frame.transfers
