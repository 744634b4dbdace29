"""Fuzz the byte decoders: frame, store, restart log, records, run report.

A valid ingest frame, store file, restart log, trace record block and
saved run report are truncated or have bytes overwritten.  Every mutant
must either decode or raise the typed error of the module that reads
it: :class:`ServiceError` for frames and restart logs,
:class:`TraceFormatError` for stores and record blocks,
:class:`ObsReportError` for run reports (and a report that loads must
render).  An ``IndexError``, ``KeyError``, ``MemoryError`` or any other
untyped exception fails.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import ObsReportError, ServiceError, TraceFormatError
from repro.obs import Observer, RunReport, Sampler, TraceContext, TraceLog
from repro.service import ServiceClient, TraceService, decode_chunk, encode_chunk
from repro.service.daemon import LOG_MAGIC
from repro.trace.codec import decode_records_array
from repro.trace.frame import TraceFrame
from repro.trace.store import FrameSource, write_store
from tests.test_trace_store import _read_everything

EXAMPLES = 300

#: bytes that turn a JSON directory into near-miss JSON more often than
#: random bytes do
_JSON_BYTES = '0123456789-+.eE[]{}":, ntrufalsNI'


def _mutants(data: bytes, hot: tuple[int, int]):
    """Truncations and overwrites of ``data``, half of them aimed at the
    structural bytes in ``hot`` (a meta object or a directory)."""
    pos = st.one_of(st.integers(0, len(data) - 1), st.integers(*hot))
    patch = st.one_of(
        st.binary(min_size=1, max_size=6),
        st.text(_JSON_BYTES, min_size=1, max_size=6).map(str.encode),
    )
    overwrite = st.tuples(pos, patch).map(
        lambda pp: data[: pp[0]] + pp[1] + data[pp[0] + len(pp[1]) :]
    )
    truncate = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    return st.one_of(truncate, overwrite)


@pytest.fixture(scope="module")
def sub_frame(small_frame):
    return TraceFrame(
        small_frame.events[:300],
        jobs=small_frame.jobs,
        files=small_frame.files,
        header=small_frame.header,
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def frame_bytes(sub_frame):
    return encode_chunk("fz", 1, sub_frame.events)


@pytest.fixture(scope="module")
def store_bytes(sub_frame, fuzz_dir):
    path = fuzz_dir / "valid.store"
    write_store(sub_frame, path, chunk_size=100)
    return path.read_bytes()


@pytest.fixture(scope="module")
def log_bytes(sub_frame, fuzz_dir):
    """A registration, an in-order chunk, a parked chunk and a duplicate."""
    path = fuzz_dir / "valid.log"
    source = FrameSource(sub_frame, chunk_size=100)
    with TraceService(snapshot_path=path) as svc:
        client = ServiceClient(svc.url)
        client.register(source, "fz")
        for seq in (0, 2, 0):
            client.push_chunk("fz", seq, source.chunk(seq))
    return path.read_bytes()


@pytest.fixture(scope="module")
def record_bytes(full_pipeline_workload):
    """The raw trace's records back to back, as a trace block carries them."""
    return b"".join(block.payload for block in full_pipeline_workload.raw.blocks)


@pytest.fixture(scope="module")
def report_bytes(fuzz_dir):
    """A saved report with every field filled: spans, counters, gauges,
    histograms, notes, a sampled time series, and the nested worker
    stream, worker sampler ring and slowest-task note a report saved
    while analyses fanned out across processes carries.  Nothing reads
    those three any more; the seed shows such a report still loads and
    renders."""
    observer = obs.enable(TraceContext.root())
    observer.sampler = Sampler(observer, period_s=30.0).start()
    try:
        with obs.span("fuzz"):
            obs.add("task.items", 3)
            obs.hist("task.size", 300.0)
            obs.note("pool.slowest_task", "a")
            obs.gauge("fuzz.ratio", 0.25)
        report = observer.report(
            command=["fuzz"], timeseries=observer.sampler.flush()
        )
    finally:
        observer.sampler.stop()
        obs.disable()
    worker = TraceLog(TraceContext.root(worker="w0"))
    worker.record("task_start", "a", key="b:1/a")
    worker.begin_span("task")
    worker.end_span("task")
    worker.record("task_end", "a", key="b:1/a")
    report.trace["children"] = [worker.payload()]
    ring = Sampler(Observer(), period_s=30.0).flush()
    report.timeseries["workers"] = [ring]
    path = report.save(fuzz_dir / "valid.json")
    assert "pool.slowest_task" in RunReport.load(path).render()
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_frame(frame_bytes, data):
    (meta_len,) = struct.unpack_from("<I", frame_bytes, 7)
    mutant = data.draw(_mutants(frame_bytes, (0, 11 + meta_len)))
    try:
        decode_chunk(mutant)
    except ServiceError:
        pass


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_store(store_bytes, fuzz_dir, data):
    dir_offset = struct.unpack_from("<IIQQQQ", store_bytes, 9)[4]
    mutant = data.draw(_mutants(store_bytes, (dir_offset, len(store_bytes) - 1)))
    path = fuzz_dir / "mutant.store"
    path.write_bytes(mutant)
    try:
        _read_everything(path)
    except TraceFormatError:
        pass


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_restart_log(log_bytes, fuzz_dir, data):
    # hot: the magic, the registration record and the first frame's head
    (reg_len,) = struct.unpack_from("<Q", log_bytes, len(LOG_MAGIC))
    hot_end = len(LOG_MAGIC) + 8 + reg_len + 8 + 120
    mutant = data.draw(_mutants(log_bytes, (0, hot_end)))
    path = fuzz_dir / "mutant.log"
    path.write_bytes(mutant)
    try:
        svc = TraceService(snapshot_path=path)
    except ServiceError:
        return
    try:
        json.dumps(svc.run_summaries())
    finally:
        svc.stop()


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_record_block(record_bytes, data):
    mutant = data.draw(_mutants(record_bytes, (0, len(record_bytes) - 1)))
    try:
        decode_records_array(mutant)
    except TraceFormatError:
        pass


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_run_report(report_bytes, fuzz_dir, data):
    mutant = data.draw(_mutants(report_bytes, (0, len(report_bytes) - 1)))
    path = fuzz_dir / "mutant.json"
    path.write_bytes(mutant)
    try:
        report = RunReport.load(path)
    except ObsReportError:
        return
    report.render()
