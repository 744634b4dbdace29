"""Wire framing for trace chunks pushed to the service daemon.

One ``POST /ingest`` body carries one chunk of EVENT_DTYPE rows in the
on-disk store's own shape (§2's per-node collectors likewise shipped
self-describing buffers): a magic prefix, a JSON meta object (run id,
sequence number, event count and a store chunk's field directory), then
the blobs :func:`repro.trace.store.encode_columns` wrote for it, offsets
counted from the end of the meta.  The store's one decoder checks each
frame, so a corrupted or truncated frame is rejected with a
:class:`ServiceError` naming the failing field instead of folded in.

Frame layout (integers little-endian)::

    offset 0  WIRE_MAGIC            b"RWIRE1\\n"
    offset 7  u32 meta length
    offset 11 meta JSON             {"v": 2, "run", "seq", "n", "fields"}
    ...       field blobs           per EVENT_DTYPE field, its byte
                                    planes at zlib level 1 or raw

Side tables (jobs/files) and the trace header travel in the run
*registration* instead — they are tiny, so :func:`encode_table` packs
each as the store's side-table entry plus its bytes in base64.
"""

from __future__ import annotations

import base64
import json
import struct

import numpy as np

from repro.errors import ServiceError, TraceFormatError
from repro.trace.frame import EVENT_DTYPE
from repro.trace.store import (
    decode_columns,
    decode_side_table,
    encode_columns,
    encode_side_table,
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "decode_chunk",
    "decode_table",
    "encode_chunk",
    "encode_table",
]

#: magic prefix of every ingest frame
WIRE_MAGIC = b"RWIRE1\n"

#: wire protocol version carried in every frame's meta object
WIRE_VERSION = 2

_META_LEN = struct.Struct("<I")

#: refuse meta objects past this size — a corrupt length prefix must not
#: make the daemon allocate gigabytes
_MAX_META_BYTES = 1 << 20


def encode_chunk(run: str, seq: int, events: np.ndarray) -> bytes:
    """Frame one chunk of events for ``POST /ingest``."""
    if events.dtype != EVENT_DTYPE:
        raise ServiceError(
            f"chunk has dtype {events.dtype}, expected EVENT_DTYPE"
        )
    if seq < 0:
        raise ServiceError(f"chunk sequence number must be >= 0, not {seq}")
    fields, blobs = encode_columns(events)
    meta = {
        "v": WIRE_VERSION,
        "run": str(run),
        "seq": int(seq),
        "n": len(events),
        "fields": fields,
    }
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [WIRE_MAGIC, _META_LEN.pack(len(meta_bytes)), meta_bytes, *blobs]
    )


def decode_chunk(data: bytes) -> tuple[str, int, np.ndarray]:
    """Decode one ingest frame back to ``(run, seq, events)``.

    Every structural failure raises :class:`ServiceError` with a message
    naming what broke — the daemon returns it verbatim as a 400 body.
    """
    if not data.startswith(WIRE_MAGIC):
        raise ServiceError("ingest body does not start with the wire magic")
    head = len(WIRE_MAGIC)
    if len(data) < head + _META_LEN.size:
        raise ServiceError("ingest frame truncated before its meta length")
    (meta_len,) = _META_LEN.unpack_from(data, head)
    if meta_len > _MAX_META_BYTES:
        raise ServiceError(f"ingest meta object of {meta_len} bytes refused")
    body = head + _META_LEN.size
    if len(data) < body + meta_len:
        raise ServiceError("ingest frame truncated inside its meta object")
    try:
        meta = json.loads(data[body : body + meta_len])
    except (ValueError, RecursionError) as exc:
        raise ServiceError(f"ingest meta is not valid JSON: {exc}")
    if not isinstance(meta, dict):
        raise ServiceError(
            f"ingest meta must be a JSON object, not {type(meta).__name__}"
        )
    if meta.get("v") != WIRE_VERSION:
        raise ServiceError(
            f"wire version {meta.get('v')!r} not supported "
            f"(this daemon speaks version {WIRE_VERSION})"
        )
    run, seq = meta.get("run"), meta.get("seq")
    if not isinstance(run, str):
        raise ServiceError(f"ingest meta 'run' must be a string, not {run!r}")
    if type(seq) is not int or seq < 0:
        raise ServiceError(
            f"ingest meta 'seq' must be an integer >= 0, not {seq!r}"
        )
    payload = memoryview(data)[body + meta_len :]  # no copy of the blobs
    try:
        events = decode_columns(
            payload, meta.get("n"), meta.get("fields"), "ingest frame"
        )
    except TraceFormatError as exc:
        raise ServiceError(str(exc)) from None
    return run, seq, events


# -- side tables inside JSON ---------------------------------------------------


def encode_table(arr: np.ndarray) -> dict:
    """A structured array as a JSON-embeddable table object.

    The object is the store's side-table entry (``enc``, ``nbytes``,
    ``raw``, ``n``, ``crc32``, ``off``) plus the stored bytes as ``b64``.
    """
    meta, stored = encode_side_table(arr)
    meta["b64"] = base64.b64encode(stored).decode("ascii")
    return meta


def decode_table(meta: dict, dtype, what: str) -> np.ndarray:
    """Invert :func:`encode_table`, validating length and checksum."""
    if not isinstance(meta, dict):
        raise ServiceError(
            f"{what} table must be a JSON object, not {type(meta).__name__}"
        )
    try:
        stored = base64.b64decode(meta.get("b64"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{what} table 'b64' is not base64: {exc}")
    try:
        return decode_side_table(stored, meta, dtype, f"{what} table")
    except TraceFormatError as exc:
        raise ServiceError(str(exc)) from None
