"""Chunked columnar trace store: analysis at scales that outgrow RAM.

The paper's characterization ran over roughly 5 GB of raw traces
collected across three weeks (§2.5); this reproduction originally
materialized every trace as one in-memory :class:`TraceFrame`, so peak
RSS — not the hardware — capped the reachable scale.  A *store* removes
that ceiling: events are laid out as fixed-size chunks of columns, each
column compressed independently (zlib when it helps, raw bytes when it
does not) and checksummed, with the job/file side tables and a JSON
directory at the tail.  Readers memory-map the file and decode one chunk
at a time, so a terabyte store and a megabyte store cost the same to
open.

Layout (all integers little-endian)::

    offset 0   STORE_MAGIC            b"CTRACE01\\n"
    offset 9   fixed header           <IIQQQQ: version (2), chunk_size,
                                      n_events, n_chunks,
                                      dir_offset, dir_bytes
    offset 49  chunk payload          per chunk, per event field: one
                                      blob holding the field's byte
                                      planes (byte 0 of every value,
                                      then byte 1, ...), zlib level 1
                                      or raw
    ...        jobs/files blobs       the side tables, one blob each of
                                      their rows, same encoding
    dir_offset directory              one JSON object (dir_bytes long)
                                      describing every blob: encoding,
                                      offset, stored/raw byte counts,
                                      CRC-32, per-chunk event count and
                                      time span

The fixed header is written as zeros first and patched on close, so a
truncated write is detected immediately (version 0 is never valid).

:func:`encode_columns`/:func:`decode_columns` (a chunk's columns) and
:func:`encode_side_table`/:func:`decode_side_table` are the one blob
codec; :mod:`repro.service.wire` frames reuse them.  The decoders check
a directory whole before allocating and raise :class:`TraceFormatError`
naming the failing field or key.

:class:`TraceSource` is the consumption-side abstraction: anything that
can enumerate EVENT_DTYPE chunks plus the side tables.  A
:class:`TraceStore` streams from disk; a :class:`FrameSource` adapts an
in-memory frame (a trace generated on the fly) to the same interface, so
every consumer runs on either unchanged.  The store is the only trace
file format: every command opens a path as ``TraceStore(path)``.
"""

from __future__ import annotations

import json
import mmap
import struct
import time
import zlib
from collections.abc import Iterator
from functools import cached_property

import numpy as np

from repro import obs
from repro.errors import TraceFormatError
from repro.trace.frame import (
    EVENT_DTYPE,
    FILE_DTYPE,
    JOB_DTYPE,
    FileTable,
    JobTable,
    TraceFrame,
)
from repro.trace.records import TraceHeader

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FORMAT_VERSION",
    "STORE_MAGIC",
    "FrameSource",
    "StoreWriter",
    "TraceSource",
    "TraceStore",
    "decode_columns",
    "decode_side_table",
    "encode_columns",
    "encode_side_table",
    "source_info",
    "write_store",
]

#: magic prefix of every chunked trace store file
STORE_MAGIC = b"CTRACE01\n"

#: the zip signature the legacy single-file frame format starts with; no
#: command reads that format any more, so its error names it
_ZIP_MAGIC = b"PK\x03\x04"

#: current on-disk format version (the fixed header's first field)
FORMAT_VERSION = 2

#: events per chunk when the caller does not choose: ~10 MB of raw
#: event rows, small enough to stream on a laptop, large enough that
#: per-chunk overhead (compression dictionaries, numpy dispatch) is noise
DEFAULT_CHUNK_SIZE = 1 << 18


def _check_chunk_size(chunk_size: int) -> int:
    """``chunk_size`` as an int; a ValueError unless it is positive."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, not {chunk_size}")
    return int(chunk_size)

#: version, chunk_size, n_events, n_chunks, dir_offset, dir_bytes
_FIXED_HEADER = struct.Struct("<IIQQQQ")

_HEADER_SIZE = len(STORE_MAGIC) + _FIXED_HEADER.size

#: the directory's "dtype" entry: every table's fields, in this order
_DTYPES = {"events": EVENT_DTYPE, "jobs": JOB_DTYPE, "files": FILE_DTYPE}

#: bytes per event row, and each field's byte planes [lo, hi) in a row
_ROW = EVENT_DTYPE.itemsize
_PLANES = {
    name: (EVENT_DTYPE.fields[name][1],
           EVENT_DTYPE.fields[name][1] + EVENT_DTYPE[name].itemsize)
    for name in EVENT_DTYPE.names
}

#: deflate inflates at most 1032-fold; a blob claiming more is refused
_MAX_INFLATE = 1032


def _encode_blob(raw) -> tuple[str, bytes]:
    """(encoding, stored bytes): zlib level 1 when that shrinks the blob.

    Level 1 deflates event columns about 4x faster than level 6; byte
    planes (:func:`encode_columns`) win back more than the bytes it loses.
    """
    packed = zlib.compress(raw, 1)
    if len(packed) < len(raw):
        return "zlib", packed
    return "raw", bytes(raw)


def encode_columns(events: np.ndarray, off: int = 0) -> tuple[dict, list[bytes]]:
    """A chunk's field directory and blobs, to be stored back to back at ``off``.

    Each blob is one field's byte planes: byte 0 of every value, then
    byte 1, and so on.  Bytes of equal weight sit together, so the slowly
    varying high bytes of times, offsets and sizes compress to almost
    nothing.  All planes come from one strided copy of the row bytes.
    """
    n = len(events)
    rows = np.ascontiguousarray(events).view(np.uint8).reshape(n, _ROW)
    planes = memoryview(rows.T.copy().reshape(-1))
    fields: dict[str, dict] = {}
    blobs: list[bytes] = []
    for name, (lo, hi) in _PLANES.items():
        enc, stored = _encode_blob(planes[lo * n : hi * n])
        fields[name] = {
            "enc": enc,
            "off": off,
            "nbytes": len(stored),
            "raw": (hi - lo) * n,
            "crc32": zlib.crc32(stored),
        }
        blobs.append(stored)
        off += len(stored)
    return fields, blobs


def encode_side_table(arr: np.ndarray, off: int = 0) -> tuple[dict, bytes]:
    """A side table as one blob and its directory entry (stored at ``off``)."""
    enc, stored = _encode_blob(np.ascontiguousarray(arr).tobytes())
    meta = {
        "enc": enc,
        "nbytes": len(stored),
        "raw": arr.nbytes,
        "n": len(arr),
        "crc32": zlib.crc32(stored),
        "off": off,
    }
    return meta, stored


def _count(value, what: str) -> int:
    """A directory count: a JSON integer >= 0, never a float or a bool."""
    if type(value) is not int or value < 0:
        raise TraceFormatError(f"{what} must be an integer >= 0, not {value!r}")
    return value


def _check_blob(meta, what: str, buf_len: int, itemsize: int, n=None) -> None:
    """Check a blob entry of ``n`` rows (a table's own ``n`` when None)."""
    if not isinstance(meta, dict):
        raise TraceFormatError(f"{what} is missing or not an object")
    n = _count(meta.get("n") if n is None else n, f"{what} 'n'")
    raw_nbytes = n * itemsize
    enc = meta.get("enc")
    if enc not in ("zlib", "raw"):
        raise TraceFormatError(f"{what} has unknown encoding {enc!r}")
    off, nbytes, raw, _ = (
        _count(meta.get(key), f"{what} {key!r}")
        for key in ("off", "nbytes", "raw", "crc32")
    )
    if raw != raw_nbytes:
        raise TraceFormatError(
            f"{what} has raw={raw}, but its rows need {raw_nbytes} bytes"
        )
    if (enc == "raw" and raw != nbytes) or raw > nbytes * _MAX_INFLATE:
        raise TraceFormatError(
            f"{what} cannot hold {raw} raw bytes in {nbytes} {enc} bytes"
        )
    if off + nbytes > buf_len:
        raise TraceFormatError(
            f"{what} extends past the end (bytes {off}..{off + nbytes} "
            f"of {buf_len})"
        )


def _blob_bytes(buf, meta: dict, what: str):
    """A checked blob's raw bytes: CRC-32 over the stored bytes, then inflate."""
    stored = buf[meta["off"] : meta["off"] + meta["nbytes"]]
    if zlib.crc32(stored) != meta["crc32"]:
        raise TraceFormatError(f"{what} failed its CRC-32 check")
    if meta["enc"] == "raw":
        return stored
    try:
        raw = zlib.decompress(stored)
    except zlib.error as exc:
        raise TraceFormatError(f"{what} failed to decompress: {exc}")
    if len(raw) != meta["raw"]:
        raise TraceFormatError(
            f"{what} decoded to {len(raw)} bytes, expected {meta['raw']}"
        )
    return raw


def _check_columns(n, fields, what: str, buf_len: int) -> int:
    """Validate a chunk's field directory against ``buf_len``; return n."""
    n = _count(n, f"{what} 'n'")
    if not isinstance(fields, dict):
        raise TraceFormatError(f"{what} 'fields' must be an object")
    unknown = [name for name in fields if name not in EVENT_DTYPE.names]
    if unknown:
        raise TraceFormatError(f"{what} has unknown field {unknown[0]!r}")
    for name in EVENT_DTYPE.names:
        _check_blob(
            fields.get(name), f"{what} field {name!r}", buf_len,
            EVENT_DTYPE[name].itemsize, n,
        )
    return n


def decode_columns(buf, n, fields, what: str) -> np.ndarray:
    """Invert :func:`encode_columns`: ``n`` EVENT_DTYPE rows out of ``buf``.

    ``n`` and ``fields`` are checked whole before the output is allocated;
    ``what`` (``"<path>: chunk 3"``, ``"ingest frame"``) prefixes errors.
    Every field's planes are inflated into one buffer, which one strided
    copy writes back into the rows.
    """
    n = _check_columns(n, fields, what, len(buf))
    planes = np.empty((_ROW, n), dtype=np.uint8)
    for name, (lo, hi) in _PLANES.items():
        raw = _blob_bytes(buf, fields[name], f"{what} field {name!r}")
        planes[lo:hi] = np.frombuffer(raw, dtype=np.uint8).reshape(hi - lo, n)
    out = np.empty(n, dtype=EVENT_DTYPE)
    out.view(np.uint8).reshape(n, _ROW)[:] = planes.T
    return out


def decode_side_table(buf, meta, dtype: np.dtype, what: str) -> np.ndarray:
    """Invert :func:`encode_side_table`: a fresh ``dtype`` array."""
    _check_blob(meta, what, len(buf), dtype.itemsize)
    return np.frombuffer(_blob_bytes(buf, meta, what), dtype=dtype).copy()


class StoreWriter:
    """Streaming writer: append event batches, get a finished store.

    Batches must arrive in non-decreasing time order (the store, like a
    frame, is a time-sorted event stream); they are re-chunked internally
    to exactly ``chunk_size`` events per chunk (final chunk excepted).
    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        path,
        header: TraceHeader,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.chunk_size = _check_chunk_size(chunk_size)
        self.path = path
        self.header = header
        self._jobs: JobTable | None = None
        self._files: FileTable | None = None
        self._pending: list[np.ndarray] = []
        self._pending_events = 0
        self._last_time = -np.inf
        self._chunks: list[dict] = []
        self._n_events = 0
        self._closed = False
        self._fh = open(path, "wb")
        # zeroed fixed header now, real values patched in close(): a
        # version field of 0 marks any interrupted write as invalid
        self._fh.write(STORE_MAGIC)
        self._fh.write(b"\0" * _FIXED_HEADER.size)

    # -- writing -------------------------------------------------------------

    def append(self, events: np.ndarray) -> None:
        """Buffer one time-ordered batch of EVENT_DTYPE rows."""
        if self._closed:
            raise ValueError("store writer is closed")
        if events.dtype != EVENT_DTYPE:
            raise TraceFormatError(
                f"events batch has dtype {events.dtype}, expected EVENT_DTYPE"
            )
        if len(events) == 0:
            return
        times = events["time"]
        if times[0] < self._last_time or np.any(times[1:] < times[:-1]):
            raise TraceFormatError(
                "events must be appended in non-decreasing time order"
            )
        self._last_time = float(times[-1])
        self._pending.append(np.ascontiguousarray(events))
        self._pending_events += len(events)
        while self._pending_events >= self.chunk_size:
            self._write_chunk(self._take(self.chunk_size))

    def set_tables(self, jobs: JobTable, files: FileTable) -> None:
        """Attach the job/file side tables (required before close)."""
        self._jobs = jobs
        self._files = files

    def _take(self, n: int) -> np.ndarray:
        taken: list[np.ndarray] = []
        need = n
        while need > 0:
            part = self._pending[0]
            if len(part) <= need:
                taken.append(self._pending.pop(0))
                need -= len(part)
            else:
                taken.append(part[:need])
                self._pending[0] = part[need:]
                need = 0
        self._pending_events -= n
        return taken[0] if len(taken) == 1 else np.concatenate(taken)

    def _write_chunk(self, chunk: np.ndarray) -> None:
        fields, blobs = encode_columns(chunk, self._fh.tell())
        self._fh.writelines(blobs)
        self._chunks.append(
            {
                "n": len(chunk),
                "t_min": float(chunk["time"][0]),
                "t_max": float(chunk["time"][-1]),
                "fields": fields,
            }
        )
        self._n_events += len(chunk)
        if obs.enabled():
            obs.add("trace.store.chunks_written")
            obs.add("trace.store.events_written", len(chunk))
            obs.add("trace.store.bytes_written", sum(map(len, blobs)))
            obs.add("trace.store.raw_bytes_written", chunk.nbytes)

    # -- finishing -----------------------------------------------------------

    def close(self) -> None:
        """Flush the partial tail chunk, write tables + directory, patch
        the fixed header."""
        if self._closed:
            return
        if self._jobs is None or self._files is None:
            self._fh.close()
            self._closed = True
            raise TraceFormatError(
                "store writer closed without job/file tables; call set_tables()"
            )
        if self._pending_events:
            self._write_chunk(self._take(self._pending_events))

        tables = {}
        for key, arr in (("jobs", self._jobs.data), ("files", self._files.data)):
            meta, stored = encode_side_table(arr, self._fh.tell())
            self._fh.write(stored)
            tables[key] = meta

        directory = {
            "version": FORMAT_VERSION,
            "chunk_size": self.chunk_size,
            "n_events": self._n_events,
            "header": self.header.to_dict(),
            "dtype": {part: _dtype_descr(dt) for part, dt in _DTYPES.items()},
            "chunks": self._chunks,
            "tables": tables,
        }
        dir_offset = self._fh.tell()
        dir_bytes = json.dumps(directory, separators=(",", ":")).encode("utf-8")
        self._fh.write(dir_bytes)
        self._fh.seek(len(STORE_MAGIC))
        self._fh.write(
            _FIXED_HEADER.pack(
                FORMAT_VERSION,
                self.chunk_size,
                self._n_events,
                len(self._chunks),
                dir_offset,
                len(dir_bytes),
            )
        )
        self._fh.close()
        self._closed = True

    def __enter__(self) -> StoreWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave the zeroed header: the partial file is self-invalidating
            self._fh.close()
            self._closed = True


def _dtype_descr(dtype: np.dtype) -> list[list[str]]:
    return [[name, dtype.fields[name][0].str] for name in dtype.names]


def write_store(
    frame: TraceFrame, path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> None:
    """Write an in-memory frame as a chunked store file."""
    with StoreWriter(path, frame.header, chunk_size) as writer:
        writer.set_tables(frame.jobs, frame.files)
        for lo in range(0, frame.n_events, chunk_size):
            writer.append(frame.events[lo : lo + chunk_size])


# -- reading -----------------------------------------------------------------


class TraceSource:
    """Anything that yields a trace as time-ordered EVENT_DTYPE chunks.

    Concatenating ``chunk(0) .. chunk(n_chunks - 1)`` reproduces the
    frame's event table exactly; the job/file side tables and the trace
    header ride along whole (they are tiny).  Consumers written against
    this interface run out-of-core on a :class:`TraceStore` and in-memory
    on a :class:`FrameSource` with identical results.
    """

    header: TraceHeader

    @property
    def jobs(self) -> JobTable:
        raise NotImplementedError

    @property
    def files(self) -> FileTable:
        raise NotImplementedError

    @property
    def n_events(self) -> int:
        raise NotImplementedError

    @property
    def n_chunks(self) -> int:
        raise NotImplementedError

    @property
    def chunk_size(self) -> int:
        raise NotImplementedError

    def chunk(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def iter_chunks(self) -> Iterator[np.ndarray]:
        for i in range(self.n_chunks):
            yield self.chunk(i)

    def chunk_frame(self, i: int) -> TraceFrame:
        """One chunk wrapped as a frame sharing this source's side tables."""
        return TraceFrame(
            self.chunk(i), jobs=self.jobs, files=self.files, header=self.header
        )

    def frame(self) -> TraceFrame:
        """Materialize the full in-memory frame."""
        if self.n_chunks == 0:
            events = np.empty(0, dtype=EVENT_DTYPE)
        elif self.n_chunks == 1:
            events = self.chunk(0)
        else:
            events = np.concatenate(list(self.iter_chunks()))
        return TraceFrame(
            events, jobs=self.jobs, files=self.files, header=self.header
        )


class FrameSource(TraceSource):
    """An in-memory frame seen through the chunked interface."""

    def __init__(self, frame: TraceFrame, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._chunk_size = _check_chunk_size(chunk_size)
        self._frame = frame
        self.header = frame.header

    @property
    def jobs(self) -> JobTable:
        return self._frame.jobs

    @property
    def files(self) -> FileTable:
        return self._frame.files

    @property
    def n_events(self) -> int:
        return self._frame.n_events

    @property
    def n_chunks(self) -> int:
        return -(-self._frame.n_events // self._chunk_size)

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    def chunk(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_chunks:
            raise IndexError(f"chunk {i} out of range (have {self.n_chunks})")
        lo = i * self._chunk_size
        return self._frame.events[lo : lo + self._chunk_size]

    def frame(self) -> TraceFrame:
        return self._frame


class TraceStore(TraceSource):
    """Memory-mapped reader for one chunked store file.

    The file is mapped read-only and its whole directory checked once at
    open; every :meth:`chunk` call decodes just that chunk's column blobs
    (CRC-checked) into a fresh EVENT_DTYPE array.
    """

    def __init__(self, path) -> None:
        self.path = path
        try:
            with open(path, "rb") as fh:
                self._map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:  # ValueError: an empty file
            raise TraceFormatError(f"{path} is not a readable trace store: {exc}")
        size = len(self._map)
        if size < _HEADER_SIZE or self._map[: len(STORE_MAGIC)] != STORE_MAGIC:
            if self._map[: len(_ZIP_MAGIC)] == _ZIP_MAGIC:
                raise TraceFormatError(
                    f"{path} is not a chunked trace store (bad magic): it is "
                    "a legacy .npz frame, which this version no longer reads; "
                    "regenerate it with 'repro generate --out'"
                )
            raise TraceFormatError(
                f"{path} is not a chunked trace store (bad magic)"
            )
        (version, chunk_size, n_events, n_chunks, dir_offset, dir_nbytes) = (
            _FIXED_HEADER.unpack_from(self._map, len(STORE_MAGIC))
        )
        if 0 < version < FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: store format version {version} is no longer read "
                f"(this reader handles version {FORMAT_VERSION}); regenerate "
                "it with 'repro generate --out'"
            )
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported store format version {version} "
                f"(this reader handles version {FORMAT_VERSION}; a version "
                "of 0 means the writing process died before finishing)"
            )
        if dir_offset + dir_nbytes > size:
            raise TraceFormatError(f"{path}: directory extends past end of file")
        try:
            directory = json.loads(self._map[dir_offset : dir_offset + dir_nbytes])
        except (ValueError, RecursionError) as exc:
            raise TraceFormatError(f"{path}: corrupt store directory: {exc}")
        if not isinstance(directory, dict):
            raise TraceFormatError(f"{path}: store directory is not an object")
        for key in ("header", "dtype", "chunks", "tables"):
            if key not in directory:
                raise TraceFormatError(f"{path}: store directory lacks {key!r}")
        dtypes = directory["dtype"]
        for part, dtype in _DTYPES.items():
            got = dtypes.get(part) if isinstance(dtypes, dict) else None
            if got != _dtype_descr(dtype):
                raise TraceFormatError(
                    f"{path}: {part} dtype is {got!r}, "
                    f"expected {_dtype_descr(dtype)!r}"
                )
        chunks = directory["chunks"]
        if not isinstance(chunks, list) or len(chunks) != n_chunks:
            raise TraceFormatError(
                f"{path}: header says {n_chunks} chunks but the directory "
                f"does not list {n_chunks}"
            )
        for i, meta in enumerate(chunks):
            what = f"{path}: chunk {i}"
            if not isinstance(meta, dict):
                raise TraceFormatError(f"{what} entry is not an object")
            if not all(type(meta.get(k)) in (int, float) for k in ("t_min", "t_max")):
                raise TraceFormatError(f"{what} 't_min'/'t_max' must be numbers")
            _check_columns(meta.get("n"), meta.get("fields"), what, size)
        tables = directory["tables"]
        self._table_meta = {}
        for key in ("jobs", "files"):
            meta = tables.get(key) if isinstance(tables, dict) else None
            _check_blob(meta, f"{path}: {key} table", size, _DTYPES[key].itemsize)
            self._table_meta[key] = meta
        try:
            self.header = TraceHeader.from_dict(directory["header"])
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: invalid trace header: {exc}")
        self._chunk_size = int(chunk_size)
        self._n_events = int(n_events)
        self._chunk_meta = chunks

    # -- TraceSource interface -----------------------------------------------

    def _table(self, key: str) -> np.ndarray:
        meta, what = self._table_meta[key], f"{self.path}: {key} table"
        return decode_side_table(self._map, meta, _DTYPES[key], what)

    @cached_property
    def jobs(self) -> JobTable:
        return JobTable(self._table("jobs"))

    @cached_property
    def files(self) -> FileTable:
        return FileTable(self._table("files"))

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def n_chunks(self) -> int:
        return len(self._chunk_meta)

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def format_version(self) -> int:
        """On-disk format version (load rejects any but the current one)."""
        return FORMAT_VERSION

    def chunk(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_chunks:
            raise IndexError(f"chunk {i} out of range (have {self.n_chunks})")
        t0 = time.perf_counter() if obs.enabled() else 0.0
        meta = self._chunk_meta[i]
        out = decode_columns(
            self._map, meta["n"], meta["fields"], f"{self.path}: chunk {i}"
        )
        if obs.enabled():
            obs.add("trace.store.chunks_read")
            obs.add("trace.store.events_read", len(out))
            obs.add(
                "trace.store.bytes_read",
                sum(f["nbytes"] for f in meta["fields"].values()),
            )
            obs.hist(
                "trace.store.chunk_decode_seconds", time.perf_counter() - t0
            )
        return out

    # -- metadata (the `trace info` surface) ---------------------------------

    def _blob_metas(self) -> Iterator[dict]:
        for meta in self._chunk_meta:
            yield from meta["fields"].values()
        yield from self._table_meta.values()

    @property
    def compressed_bytes(self) -> int:
        """Stored payload bytes (chunks + side tables)."""
        return sum(meta["nbytes"] for meta in self._blob_metas())

    @property
    def uncompressed_bytes(self) -> int:
        """What the same payload would occupy with no compression."""
        return sum(meta["raw"] for meta in self._blob_metas())

    def time_span(self) -> tuple[float, float]:
        """(first, last) event time from chunk metadata alone."""
        if not self._chunk_meta:
            return (0.0, 0.0)
        return (
            float(self._chunk_meta[0]["t_min"]),
            float(self._chunk_meta[-1]["t_max"]),
        )

    def close(self) -> None:
        self._map.close()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def source_info(path) -> dict:
    """Machine-readable description of a store file.

    One JSON-serializable dict, the data behind ``repro trace info``
    (its human form and ``--json``), and the per-run shape the trace
    service's ``/runs`` listing reuses: the header, the side tables'
    sizes and the full per-chunk directory (event count and time span
    per chunk).
    """
    with TraceStore(path) as st:
        t0, t1 = st.time_span()
        return {
            "path": str(path),
            "kind": "store",
            "format_version": st.format_version,
            "n_events": st.n_events,
            "n_chunks": st.n_chunks,
            "chunk_size": st.chunk_size,
            "n_jobs": len(st.jobs),
            "n_traced_jobs": len(st.jobs.traced),
            "n_files": len(st.files),
            "compressed_bytes": st.compressed_bytes,
            "uncompressed_bytes": st.uncompressed_bytes,
            "time_span": [t0, t1],
            "header": st.header.to_dict(),
            "chunks": [
                {
                    "n": int(c["n"]),
                    "t_min": float(c["t_min"]),
                    "t_max": float(c["t_max"]),
                }
                for c in st._chunk_meta
            ],
        }
