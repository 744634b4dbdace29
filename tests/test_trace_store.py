"""Tests for repro.trace.store: the chunked columnar trace store.

The contract under test is bit-exactness: any time-ordered event batch —
empty frames, NO_VALUE fields, extreme offsets — survives the
write→read round trip byte for byte, at any chunk size, with either
encoding.  And every way a store file can lie (bad magic, interrupted
write, flipped payload byte, truncation) must surface as a
:class:`TraceFormatError` that names what is wrong.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceFormatError
from repro.trace.frame import (
    EVENT_DTYPE,
    FILE_DTYPE,
    JOB_DTYPE,
    FileTable,
    JobTable,
    TraceFrame,
)
from repro.trace.records import NO_VALUE, EventKind, TraceHeader
from repro.trace.store import (
    STORE_MAGIC,
    FrameSource,
    StoreWriter,
    TraceStore,
    write_store,
)

HEADER = TraceHeader(site="test-site", n_compute_nodes=8, n_io_nodes=2)


def _events_array(rows):
    arr = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, row in enumerate(rows):
        arr[i] = row
    return arr[np.argsort(arr["time"], kind="stable")]


def _tables_for(events):
    job_ids = sorted({int(j) for j in events["job"] if j != NO_VALUE})
    jobs = JobTable.from_rows((j, 0.0, 10.0, 1, True) for j in job_ids)
    file_ids = sorted({int(f) for f in events["file"] if f != NO_VALUE})
    files = np.zeros(len(file_ids), dtype=FILE_DTYPE)
    for i, fid in enumerate(file_ids):
        files[i] = (fid, NO_VALUE, NO_VALUE, 0)
    return jobs, FileTable(files)


event_rows = st.tuples(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**31 - 1),                              # node
    st.integers(0, 2**31 - 1),                              # job
    st.one_of(st.just(NO_VALUE), st.integers(0, 2**31 - 1)),  # file
    st.sampled_from([int(k) for k in EventKind]),
    st.integers(-1, 3),                                     # mode
    st.integers(0, 2**16 - 1),                              # flags
    st.one_of(st.just(NO_VALUE), st.integers(0, 2**62)),    # offset
    st.one_of(st.just(NO_VALUE), st.integers(0, 2**62)),    # size
)


class TestRoundTrip:
    @given(st.lists(event_rows, min_size=0, max_size=40), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit(self, tmp_path_factory, rows, chunk_size):
        events = _events_array(rows)
        jobs, files = _tables_for(events)
        path = tmp_path_factory.mktemp("store") / "t.store"
        with StoreWriter(path, HEADER, chunk_size) as writer:
            writer.set_tables(jobs, files)
            writer.append(events)
        with TraceStore(path) as store:
            assert store.n_events == len(events)
            back = (
                np.concatenate(list(store.iter_chunks()))
                if store.n_chunks
                else np.empty(0, dtype=EVENT_DTYPE)
            )
            assert back.tobytes() == events.tobytes()
            assert store.jobs.data.tobytes() == jobs.data.tobytes()
            assert store.files.data.tobytes() == files.data.tobytes()
            assert store.header == HEADER

    def test_zlib_and_raw_blobs_round_trip(self, tmp_path):
        """Constant columns compress, random 63-bit offsets do not: one
        directory holds both encodings and still decodes bit for bit."""
        rng = np.random.default_rng(5)
        events = _events_array(
            [(float(t), 1, 1, 1, int(EventKind.READ), -1, 0, int(o), 4096)
             for t, o in enumerate(rng.integers(0, 2**62, 600))]
        )
        jobs, files = _tables_for(events)
        path = tmp_path / "t.store"
        write_store(
            TraceFrame(events, jobs=jobs, files=files, header=HEADER), path,
            chunk_size=256,
        )
        with TraceStore(path) as store:
            encs = {
                f["enc"] for c in store._chunk_meta for f in c["fields"].values()
            }
            assert encs == {"zlib", "raw"}
            back = np.concatenate(list(store.iter_chunks()))
            assert back.tobytes() == events.tobytes()
            assert store.jobs.data.tobytes() == jobs.data.tobytes()

    def test_batched_appends_rechunk(self, tmp_path):
        events = _events_array(
            [(float(t), 0, 0, 0, int(EventKind.READ), -1, 0, t * 100, 10)
             for t in range(25)]
        )
        jobs, files = _tables_for(events)
        path = tmp_path / "t.store"
        with StoreWriter(path, HEADER, chunk_size=7) as writer:
            writer.set_tables(jobs, files)
            for lo in range(0, 25, 4):  # batch size != chunk size
                writer.append(events[lo : lo + 4])
        with TraceStore(path) as store:
            assert store.n_chunks == 4  # 7 + 7 + 7 + 4
            assert [len(c) for c in store.iter_chunks()] == [7, 7, 7, 4]
            back = np.concatenate(list(store.iter_chunks()))
            assert back.tobytes() == events.tobytes()
            t0, t1 = store.time_span()
            assert (t0, t1) == (0.0, 24.0)

    def test_compression_shrinks_redundant_payload(self, tmp_path):
        events = _events_array(
            [(float(t), 1, 1, 1, int(EventKind.READ), -1, 0, 4096, 4096)
             for t in range(2000)]
        )
        jobs, files = _tables_for(events)
        path = tmp_path / "t.store"
        write_store(
            TraceFrame(events, jobs=jobs, files=files, header=HEADER), path
        )
        with TraceStore(path) as store:
            assert store.compressed_bytes < store.uncompressed_bytes / 4


def _layout_blob(raw: bytes) -> tuple[str, bytes]:
    """The documented blob rule: zlib level 1 when shorter, else raw."""
    packed = zlib.compress(raw, 1)
    return ("zlib", packed) if len(packed) < len(raw) else ("raw", raw)


def _layout_planes(values: np.ndarray) -> bytes:
    """A field's documented byte planes, built value by value: byte 0
    (least significant) of every value, then byte 1, and so on."""
    little = [
        np.asarray(v, dtype=values.dtype.newbyteorder("<")).tobytes()
        for v in values
    ]
    return b"".join(
        bytes(v[k] for v in little) for k in range(values.dtype.itemsize)
    )


class TestFormatPinned:
    """Every blob and directory entry is pinned to the documented layout."""

    def test_blobs_and_key_order_match_layout(self, tmp_path, small_frame):
        chunk_size = 4096
        path = tmp_path / "t.store"
        write_store(small_frame, path, chunk_size=chunk_size)
        data = path.read_bytes()
        head = len(STORE_MAGIC)
        assert data[:head] == STORE_MAGIC
        version, cs, n_events, n_chunks, dir_off, dir_len = struct.unpack_from(
            "<IIQQQQ", data, head
        )
        assert (version, cs, n_events) == (2, chunk_size, small_frame.n_events)
        directory = json.loads(data[dir_off : dir_off + dir_len])
        assert dir_off + dir_len == len(data)
        assert list(directory) == [
            "version", "chunk_size", "n_events", "header", "dtype",
            "chunks", "tables",
        ]
        assert len(directory["chunks"]) == n_chunks

        pos = head + struct.calcsize("<IIQQQQ")  # blobs are contiguous

        def check(meta, raw, keys):
            nonlocal pos
            assert list(meta) == keys
            enc, stored = _layout_blob(raw)
            assert meta["enc"] == enc and meta["off"] == pos
            assert meta["nbytes"] == len(stored) and meta["raw"] == len(raw)
            assert data[pos : pos + len(stored)] == stored
            assert meta["crc32"] == zlib.crc32(stored)
            pos += len(stored)

        events = small_frame.events
        for i, chunk in enumerate(directory["chunks"]):
            rows = events[i * chunk_size : (i + 1) * chunk_size]
            assert list(chunk) == ["n", "t_min", "t_max", "fields"]
            assert (chunk["n"], chunk["t_min"], chunk["t_max"]) == (
                len(rows), float(rows["time"][0]), float(rows["time"][-1])
            )
            assert list(chunk["fields"]) == list(EVENT_DTYPE.names)
            for name in EVENT_DTYPE.names:
                check(
                    chunk["fields"][name],
                    _layout_planes(rows[name]),
                    ["enc", "off", "nbytes", "raw", "crc32"],
                )
        assert list(directory["tables"]) == ["jobs", "files"]
        for key, arr in (
            ("jobs", small_frame.jobs.data), ("files", small_frame.files.data)
        ):
            meta = directory["tables"][key]
            assert meta["n"] == len(arr)
            check(
                meta, arr.tobytes(), ["enc", "nbytes", "raw", "n", "crc32", "off"]
            )
        assert pos == dir_off


class TestSources:
    def test_frame_source_chunks_cover_frame(self):
        events = _events_array(
            [(float(t), 0, 0, 0, int(EventKind.READ), -1, 0, 0, 1)
             for t in range(10)]
        )
        jobs, files = _tables_for(events)
        frame = TraceFrame(events, jobs=jobs, files=files, header=HEADER)
        src = FrameSource(frame, chunk_size=3)
        assert src.n_chunks == 4
        back = np.concatenate(list(src.iter_chunks()))
        assert back.tobytes() == events.tobytes()
        assert src.frame() is frame
        sub = src.chunk_frame(1)
        assert sub.n_events == 3
        assert sub.jobs is frame.jobs

    def test_characterize_surfaces_a_chunk_error_unchanged(self, small_frame):
        from repro.core import characterize

        class Exploding(FrameSource):
            def chunk(self, i):
                if i == 1:
                    raise RuntimeError("disk on fire")
                return super().chunk(i)

        src = Exploding(small_frame, chunk_size=-(-small_frame.n_events // 4))
        with pytest.raises(RuntimeError, match="disk on fire") as info:
            characterize(src)
        assert type(info.value) is RuntimeError


class TestWriterValidation:
    def test_rejects_wrong_dtype(self, tmp_path):
        with StoreWriter(tmp_path / "t.store", HEADER) as writer:
            writer.set_tables(*_tables_for(np.empty(0, dtype=EVENT_DTYPE)))
            with pytest.raises(TraceFormatError, match="dtype"):
                writer.append(np.zeros(3, dtype=np.int64))

    def test_rejects_time_regression_within_batch(self, tmp_path):
        events = _events_array(
            [(1.0, 0, 0, 0, int(EventKind.READ), -1, 0, 0, 1)]
        )
        events["time"] = [1.0]
        bad = np.concatenate([events, events])
        bad["time"] = [2.0, 1.0]
        with StoreWriter(tmp_path / "t.store", HEADER) as writer:
            writer.set_tables(*_tables_for(bad))
            with pytest.raises(TraceFormatError, match="non-decreasing time"):
                writer.append(bad)

    def test_rejects_time_regression_across_batches(self, tmp_path):
        a = _events_array([(5.0, 0, 0, 0, int(EventKind.READ), -1, 0, 0, 1)])
        b = _events_array([(4.0, 0, 0, 0, int(EventKind.READ), -1, 0, 0, 1)])
        with StoreWriter(tmp_path / "t.store", HEADER) as writer:
            writer.set_tables(*_tables_for(a))
            writer.append(a)
            with pytest.raises(TraceFormatError, match="non-decreasing time"):
                writer.append(b)

    def test_close_without_tables_raises(self, tmp_path):
        writer = StoreWriter(tmp_path / "t.store", HEADER)
        with pytest.raises(TraceFormatError, match="set_tables"):
            writer.close()

    def test_interrupted_write_is_invalid(self, tmp_path):
        path = tmp_path / "t.store"
        try:
            with StoreWriter(path, HEADER) as writer:
                writer.set_tables(*_tables_for(np.empty(0, dtype=EVENT_DTYPE)))
                raise RuntimeError("simulated crash")
        except RuntimeError:
            pass
        # the zeroed header marks the file as version 0 — never readable
        with pytest.raises(TraceFormatError, match="version 0"):
            TraceStore(path)


def _rewrite_directory(path, change) -> None:
    """Apply ``change`` to a store's JSON directory in place."""
    data = path.read_bytes()
    head = len(STORE_MAGIC)
    fixed = list(struct.unpack_from("<IIQQQQ", data, head))
    dir_off, dir_len = fixed[4], fixed[5]
    directory = json.loads(data[dir_off : dir_off + dir_len])
    change(directory)
    text = json.dumps(directory, separators=(",", ":")).encode("utf-8")
    fixed[5] = len(text)
    out = bytearray(data[:dir_off] + text)
    struct.pack_into("<IIQQQQ", out, head, *fixed)
    path.write_bytes(bytes(out))


def _read_everything(path) -> None:
    """Open a store and touch every decoded part of it."""
    with TraceStore(path) as store:
        for i in range(store.n_chunks):
            store.chunk(i)
        store.jobs, store.files
        store.time_span(), store.compressed_bytes, store.uncompressed_bytes


class TestCorruption:
    def _valid_store(self, tmp_path):
        events = _events_array(
            [(float(t), 0, 0, 0, int(EventKind.READ), -1, 0, t, 1)
             for t in range(20)]
        )
        jobs, files = _tables_for(events)
        path = tmp_path / "t.store"
        write_store(
            TraceFrame(events, jobs=jobs, files=files, header=HEADER),
            path,
            chunk_size=8,
        )
        return path

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"NOTASTORE" + b"\0" * 64)
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceStore(path)

    def test_npz_is_not_a_store(self, tmp_path):
        # a legacy frame must fail the magic check, not decode as garbage,
        # and the error names the format
        events = _events_array([(0.0, 0, 0, 0, int(EventKind.READ), -1, 0, 0, 1)])
        npz_path = tmp_path / "t.npz"
        np.savez_compressed(npz_path, events=events)
        with pytest.raises(
            TraceFormatError,
            match=r"bad magic\): it is a legacy \.npz frame.*repro generate --out",
        ):
            TraceStore(npz_path)

    def test_unsupported_version(self, tmp_path):
        """A version-1 store (row-ordered blobs) is refused with the way
        out; an unknown version is refused as unsupported."""
        path = self._valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        for version, match in (
            (1, r"version 1 is no longer read.*repro generate --out"),
            (99, r"unsupported store format version 99"),
        ):
            struct.pack_into("<I", data, len(STORE_MAGIC), version)
            path.write_bytes(bytes(data))
            with pytest.raises(TraceFormatError, match=match):
                TraceStore(path)

    def test_flipped_chunk_byte_names_chunk_and_field(self, tmp_path):
        path = self._valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        # the first chunk's first field blob starts right after the header
        first_blob = len(STORE_MAGIC) + struct.calcsize("<IIQQQQ")
        data[first_blob] ^= 0xFF
        path.write_bytes(bytes(data))
        store = TraceStore(path)
        with pytest.raises(TraceFormatError, match="chunk 0 field 'time'"):
            store.chunk(0)
        # later chunks are untouched and still decode
        assert len(store.chunk(1)) == 8
        store.close()

    def test_truncated_file(self, tmp_path):
        path = self._valid_store(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="past end of file"):
            TraceStore(path)

    def test_corrupt_directory_json(self, tmp_path):
        path = self._valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # inside the JSON directory at the tail
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="corrupt store directory"):
            TraceStore(path)

    @pytest.mark.parametrize(
        "change, match",
        [
            (
                lambda d: d["dtype"].update(events=d["dtype"]["events"][:3]),
                r"events dtype is",
            ),
            (
                lambda d: d["chunks"][0]["fields"].pop("size"),
                r"chunk 0 field 'size' is missing",
            ),
            (
                lambda d: d["chunks"][0].update(n=10**12),
                r"chunk 0 field 'time' has raw=",
            ),
            (lambda d: d.pop("tables"), r"lacks 'tables'"),
            (lambda d: d["chunks"][0].pop("t_min"), r"chunk 0 't_min'"),
        ],
        ids=["dtype-cut", "no-size", "n-1e12", "no-tables", "no-t_min"],
    )
    def test_malformed_directory(self, tmp_path, change, match):
        """Each directory defect raises a TraceFormatError from open or
        first use, naming the field or key."""
        path = self._valid_store(tmp_path)
        _rewrite_directory(path, change)
        with pytest.raises(TraceFormatError, match=match):
            _read_everything(path)

    def test_chunk_index_out_of_range(self, tmp_path):
        path = self._valid_store(tmp_path)
        with TraceStore(path) as store:
            with pytest.raises(IndexError, match="out of range"):
                store.chunk(99)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(TraceFormatError, match="not a readable trace store"):
            TraceStore(tmp_path / "does-not-exist.store")


class TestHeaderDict:
    def test_roundtrip(self):
        h = TraceHeader(site="x", n_compute_nodes=4, n_io_nodes=1, notes="n")
        assert TraceHeader.from_dict(h.to_dict()) == h

    def test_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            TraceHeader.from_dict({"not_a_field": 1})
