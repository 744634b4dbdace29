"""The trace service: wire codec, daemon folding, ingest equivalence.

The load-bearing property is the ISSUE's acceptance bar: a report
served by ``repro serve`` after N interleaved ``repro push`` clients —
in any chunk order, across a mid-stream daemon restart — is
byte-identical to ``repro characterize`` over the same trace, while the
daemon's ``/metrics`` exposes its own ``service.*`` telemetry through
the standard Prometheus exporter.
"""

from __future__ import annotations

import json
import socket
import struct
import select
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from repro.core import characterize
from repro.errors import ServiceError
from repro.service import (
    ServiceClient,
    TraceService,
    decode_chunk,
    decode_table,
    encode_chunk,
    encode_table,
)
from repro.service.daemon import LOG_MAGIC
from repro.service.figdata import REPORT_FIGURES, figdata_from_report
from repro.service.http import ReusableThreadingHTTPServer, _Handler
from repro.trace.frame import EVENT_DTYPE, JOB_DTYPE
from repro.trace.store import FrameSource
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import ames1993
from tests.test_obs_metrics import parse_prometheus
from tests.test_trace_store import _layout_blob, _layout_planes

SEEDS = (3, 11)

#: small enough to fold fast, small enough chunks to interleave widely
CHUNK = 1024


@pytest.fixture(scope="module")
def frames():
    """One small generated frame per equivalence seed."""
    return {
        seed: WorkloadGenerator(ames1993(0.02), seed=seed).run("direct").frame
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def batch_texts(frames):
    """The CLI-identical batch report body per seed."""
    return {
        seed: characterize(frame).render() + "\n"
        for seed, frame in frames.items()
    }


def _source(frames, seed, chunk_size=CHUNK):
    return FrameSource(frames[seed], chunk_size=chunk_size)


# -- wire codec ---------------------------------------------------------------


def _extreme_events() -> np.ndarray:
    """Each field at its extremes: int64 min/max offset and size, negative
    mode, flags 0xFFFF, -0.0 and +-inf time."""
    events = np.zeros(6, dtype=EVENT_DTYPE)
    events["time"] = [-np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, np.inf]
    for name in ("node", "job", "file", "offset", "size"):
        info = np.iinfo(EVENT_DTYPE[name])
        events[name] = [info.min, -1, 0, 1, info.max - 1, info.max]
    events["kind"] = [0, 1, 127, 128, 254, 255]
    events["mode"] = [-128, -1, 0, 1, 3, 127]
    events["flags"] = [0, 1, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF]
    return events


class TestWire:
    def test_chunk_round_trip(self, frames):
        """Bit for bit at n = 0, 1, odd and even counts, and with every
        field at its extremes (-0.0 and 0.0 differ in their bytes)."""
        events = frames[3].events
        for i, chunk in enumerate(
            [events[:500], events[:0], events[:1], events[7:784],
             events[::3][:99], _extreme_events()]
        ):
            frame = encode_chunk("r1", i, chunk)
            run, seq, out = decode_chunk(frame)
            assert (run, seq) == ("r1", i)
            assert out.dtype == EVENT_DTYPE
            assert out.tobytes() == chunk.tobytes()

    def test_empty_chunk_round_trip(self, frames):
        events = frames[3].events[:0]
        run, seq, out = decode_chunk(encode_chunk("r", 0, events))
        assert len(out) == 0 and out.dtype == events.dtype

    def test_bad_magic_rejected(self):
        with pytest.raises(ServiceError, match="wire magic"):
            decode_chunk(b"NOTMAGIC" + b"\x00" * 32)

    def test_truncated_frame_rejected(self, frames):
        frame = encode_chunk("r", 0, frames[3].events[:100])
        with pytest.raises(ServiceError):
            decode_chunk(frame[: len(frame) // 2])

    def test_corrupted_payload_rejected(self, frames):
        frame = bytearray(encode_chunk("r", 0, frames[3].events[:100]))
        frame[-3] ^= 0xFF  # flip a bit inside the last field blob
        with pytest.raises(ServiceError, match="CRC-32|decompress"):
            decode_chunk(bytes(frame))

    def test_wrong_version_rejected(self, frames):
        """Version 1 (row-ordered blobs) and unknown versions are refused,
        naming the frame's version and the daemon's."""
        frame = encode_chunk("r", 0, frames[3].events[:10])
        for version in (b"1", b"9"):
            bad = frame.replace(b'{"v":2,', b'{"v":' + version + b",", 1)
            assert bad != frame
            with pytest.raises(
                ServiceError,
                match=f"wire version {version.decode()} not supported.*version 2",
            ):
                decode_chunk(bad)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ServiceError, match="dtype"):
            encode_chunk("r", 0, np.zeros(3, dtype=np.int64))

    def test_table_round_trip(self, frames):
        jobs = frames[3].jobs.data
        out = decode_table(encode_table(jobs), JOB_DTYPE, "jobs")
        assert np.array_equal(out, jobs)

    def test_table_corruption_rejected(self, frames):
        meta = encode_table(frames[3].jobs.data)
        meta["crc32"] ^= 1
        with pytest.raises(ServiceError, match="CRC-32"):
            decode_table(meta, JOB_DTYPE, "jobs")


def _layout_frame(run: str, seq: int, events: np.ndarray) -> bytes:
    """An ingest frame rebuilt by hand from wire.py's documented layout."""
    fields, blobs, off = {}, [], 0
    for name in EVENT_DTYPE.names:
        planes = _layout_planes(events[name])
        enc, stored = _layout_blob(planes)
        fields[name] = {
            "enc": enc, "off": off, "nbytes": len(stored),
            "raw": len(planes), "crc32": zlib.crc32(stored),
        }
        blobs.append(stored)
        off += len(stored)
    meta = {"v": 2, "run": run, "seq": seq, "n": len(events), "fields": fields}
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [b"RWIRE1\n", struct.pack("<I", len(meta_bytes)), meta_bytes, *blobs]
    )


class TestWireFormatPinned:
    """``encode_chunk`` output is pinned byte for byte to the layout."""

    @pytest.mark.parametrize(
        "run, seq, lo, hi",
        [("r1", 5, 10240, 12288), ("r", 0, 0, 0), ("r", 0, 0, 3)],
        ids=["seq5-2048", "empty", "three"],
    )
    def test_frame_bytes_match_layout(self, frames, run, seq, lo, hi):
        events = frames[3].events[lo:hi]
        assert encode_chunk(run, seq, events) == _layout_frame(run, seq, events)


def _with_meta(frame: bytes, change) -> bytes:
    """``frame`` with its meta object replaced by ``change(meta)`` (JSON)."""
    head = len(b"RWIRE1\n")
    (meta_len,) = struct.unpack_from("<I", frame, head)
    meta = json.loads(frame[head + 4 : head + 4 + meta_len])
    text = change(meta).encode("utf-8")
    return b"".join([
        frame[:head], struct.pack("<I", len(text)), text,
        frame[head + 4 + meta_len :],
    ])


class TestMalformedInput:
    """Every malformed frame or table raises a ServiceError naming the
    field or key."""

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda m: json.dumps({**m, "n": 10**12}), r"field 'time' has raw="),
            (lambda m: json.dumps({**m, "n": -1}), r"'n' must be an integer"),
            (lambda m: json.dumps({**m, "fields": []}), r"'fields' must be"),
            (lambda m: json.dumps([m]), r"meta must be a JSON object"),
            (
                lambda m: json.dumps(m).replace('"seq": 5', '"seq": 1e999'),
                r"'seq' must be an integer",
            ),
        ],
        ids=["n-1e12", "n-negative", "fields-list", "meta-array", "seq-1e999"],
    )
    def test_frame(self, frames, change, match):
        frame = _with_meta(encode_chunk("r", 5, frames[3].events[:2048]), change)
        with pytest.raises(ServiceError, match=match):
            decode_chunk(frame)

    @pytest.mark.parametrize(
        "table, match",
        [
            (lambda: [], r"jobs table must be a JSON object"),
            (
                lambda: encode_table(np.zeros(37, dtype=np.uint8)),
                r"jobs table has raw=37, but its rows need",
            ),
        ],
        ids=["list", "partial-rows"],
    )
    def test_table(self, table, match):
        with pytest.raises(ServiceError, match=match):
            decode_table(table(), JOB_DTYPE, "jobs")


# -- figdata ------------------------------------------------------------------


class TestFigdata:
    def test_matches_figure_series(self, frames):
        from repro.core.figures import figure_series

        report = characterize(frames[3])
        data = figdata_from_report(report)
        assert set(data) <= set(REPORT_FIGURES)
        for figure in data:
            direct = figure_series(frames[3], figure)
            assert set(data[figure]["series"]) == set(direct)
            for name, (xs, ys) in direct.items():
                got = data[figure]["series"][name]
                assert np.array_equal(np.asarray(got["x"], float), np.asarray(xs, float))
                assert np.array_equal(np.asarray(got["y"], float), np.asarray(ys, float))

    def test_json_serializable(self, frames):
        json.dumps(figdata_from_report(characterize(frames[11])))


# -- daemon folding -----------------------------------------------------------


class TestServiceFolding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_client_byte_identity(self, frames, batch_texts, seed):
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.push(_source(frames, seed), "w")
            assert client.report_text("w") == batch_texts[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_clients_byte_identity(
        self, frames, batch_texts, seed
    ):
        """N concurrent pushers, strided chunks, one byte-exact report."""
        n_clients = 3
        with TraceService() as svc:
            errors: list[Exception] = []

            def push(offset: int) -> None:
                try:
                    ServiceClient(svc.url).push(
                        _source(frames, seed), "w",
                        stride=n_clients, offset=offset,
                    )
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=push, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            client = ServiceClient(svc.url)
            summary = client.wait_complete("w", timeout=10)
            assert summary["n_events"] == frames[seed].n_events
            assert client.report_text("w") == batch_texts[seed]
            # served JSON passed through json.dumps, which stringifies
            # the int dict keys — round-trip the batch dict the same way
            assert client.report_json("w") == json.loads(
                json.dumps(characterize(frames[seed]).to_dict())
            )

    def test_reverse_order_push(self, frames, batch_texts):
        """Worst-case ordering: every chunk but the first parks."""
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.register(source, "w")
            for seq in reversed(range(source.n_chunks)):
                out = client.push_chunk("w", seq, source.chunk(seq))
                assert out["status"] == (
                    "folded" if seq == 0 else "parked"
                )
            assert client.report_text("w") == batch_texts[3]

    def test_duplicate_chunks_ignored(self, frames, batch_texts):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.push(source, "w")
            out = client.push_chunk("w", 0, source.chunk(0))
            assert out["status"] == "duplicate"
            (summary,) = client.runs()
            assert summary["n_duplicates"] == 1
            assert client.report_text("w") == batch_texts[3]

    def test_incomplete_report_is_409(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.register(source, "w")
            client.push_chunk("w", 0, source.chunk(0))
            with pytest.raises(ServiceError, match="409.*incomplete"):
                client.report_text("w")

    def test_unknown_run_is_404(self, frames):
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError, match="404"):
                client.push_chunk("ghost", 0, frames[3].events[:10])
            with pytest.raises(ServiceError, match="404"):
                client.report_text("ghost")

    def test_conflicting_registration_is_409(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.register(source, "w")
            # same declaration is idempotent (concurrent pusher teams)
            assert (
                client.register(source, "w")["status"] == "already-registered"
            )
            with pytest.raises(ServiceError, match="409"):
                client.register(_source(frames, 3, chunk_size=512), "w")

    def test_out_of_range_chunk_rejected(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.register(source, "w")
            with pytest.raises(ServiceError, match="out of range"):
                client.push_chunk("w", source.n_chunks + 3, source.chunk(0))

    def test_registration_with_bad_table_is_400(self, frames):
        source = _source(frames, 3)
        payload = {
            "run": "w", "n_chunks": source.n_chunks,
            "n_events": source.n_events, "header": source.header.to_dict(),
            "jobs": encode_table(source.jobs.data),
            "files": encode_table(source.files.data),
        }
        payload["jobs"]["crc32"] ^= 1
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(
                ServiceError, match=r"HTTP 400.*jobs table failed its CRC-32"
            ):
                client._post_json("/runs", payload)
            assert client.runs() == []

    def test_ingest_with_array_meta_is_400(self):
        body = b"RWIRE1\n" + struct.pack("<I", 2) + b"[]"
        with TraceService() as svc:
            with pytest.raises(
                ServiceError, match=r"HTTP 400.*meta must be a JSON object"
            ):
                ServiceClient(svc.url)._request("POST", "/ingest", body)

    def test_runs_summary_mirrors_source(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.push(source, "w")
            (summary,) = client.runs()
            assert summary["complete"] is True
            assert summary["n_events"] == source.n_events
            assert summary["n_chunks"] == source.n_chunks
            assert summary["header"] == source.header.to_dict()
            assert [c["n"] for c in summary["chunks"]] == [
                len(source.chunk(i)) for i in range(source.n_chunks)
            ]

    def test_figdata_endpoint(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.push(source, "w")
            assert client.figdata("w") == figdata_from_report(
                characterize(frames[3])
            )

    @pytest.mark.parametrize("run", ["my run", "a?b", "a/b", "r%41"])
    def test_url_special_run_ids_round_trip(self, frames, batch_texts, run):
        # the client percent-encodes the run as one path segment and the
        # router decodes it, so "?", "/", " " and "%" survive the trip
        batch = characterize(frames[3])
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.push(_source(frames, 3), run)
            assert [r["run"] for r in client.runs()] == [run]
            assert client.report_text(run) == batch_texts[3]
            assert client.report_json(run) == json.loads(
                json.dumps(batch.to_dict())
            )
            assert client.figdata(run) == figdata_from_report(batch)


class TestContentLength:
    """A bad ``Content-Length`` gets a 400 naming the header, never a 500
    or a hang; the router reads the body in bounded pieces."""

    @staticmethod
    def _post_ingest(port: int, length: bytes, body: bytes = b"",
                     end_body: bool = False) -> tuple[int, str]:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length + b"\r\n\r\n" + body
            )
            if end_body:
                sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        head, _, payload = data.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(payload)["error"]

    @pytest.mark.parametrize("length", [b"-1", b"-5", b"abc", b"+7", b"1e3"])
    def test_invalid_value_is_400(self, length):
        with TraceService() as svc:
            status, error = self._post_ingest(svc.port, length)
        assert status == 400
        assert "Content-Length" in error

    @pytest.mark.parametrize("length", [b"99999999999999", b"10"])
    def test_body_shorter_than_declared_is_400(self, length):
        with TraceService() as svc:
            status, error = self._post_ingest(
                svc.port, length, b"abc", end_body=True
            )
            # the daemon keeps serving
            assert ServiceClient(svc.url).health()["status"] == "ok"
        assert status == 400
        assert "Content-Length" in error

    def test_stalled_client_is_timed_out(self, monkeypatch):
        # a client that stops mid-body gets a 408, and one that never
        # sends a request line is closed; neither holds a thread
        assert 0 < _Handler.timeout <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with TraceService() as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5
            ) as silent:
                assert ServiceClient(svc.url).health()["status"] == "ok"
                status, error = self._post_ingest(svc.port, b"10", b"abc")
                assert silent.recv(1) == b""
            assert ServiceClient(svc.url).health()["status"] == "ok"
        assert status == 408
        assert "7 bytes" in error and "Content-Length" in error

    def test_trickling_client_is_cut_at_the_deadline(self, monkeypatch):
        # one header byte every 0.1 s keeps each read inside the timeout;
        # the request's single deadline still closes the connection
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        head = b"GET /healthz HTTP/1.1\r\nHost: test\r\nX-Slow: " + b"a" * 100
        with TraceService() as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5
            ) as sock:
                t0 = time.monotonic()
                answer = None
                for byte in head:
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:  # the daemon already closed it
                        answer = b""
                        break
                    if select.select([sock], [], [], 0.1)[0]:
                        try:
                            answer = sock.recv(65536)
                        except ConnectionResetError:
                            answer = b""
                        break
                elapsed = time.monotonic() - t0
                assert ServiceClient(svc.url).health()["status"] == "ok"
        assert answer is not None, "trickled request never cut off"
        assert answer == b"" or answer.startswith(b"HTTP/1.0 408")
        assert elapsed < 0.5 + 1.0


# -- restart from the restart log -------------------------------------------


def _log_records(path) -> list[tuple[int, bytes]]:
    """(byte offset, body) of every record in a restart log."""
    data = path.read_bytes()
    assert data.startswith(LOG_MAGIC)
    off, out = len(LOG_MAGIC), []
    while off < len(data):
        (length,) = struct.unpack_from("<Q", data, off)
        out.append((off, data[off + 8 : off + 8 + length]))
        off += 8 + length
    assert off == len(data)
    return out


class TestSnapshotRestart:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_stream_restart_byte_identity(
        self, tmp_path, frames, batch_texts, seed
    ):
        """Push half, drain, restart from snapshot, push the rest."""
        source = _source(frames, seed)
        snap = tmp_path / "service.log"
        first = TraceService(snapshot_path=snap).start()
        try:
            client = ServiceClient(first.url)
            # even chunks only: the daemon stops with parked odd... none
            # parked — strided evens leave gaps, so half fold, half park
            client.push(source, "w", stride=2, offset=0)
        finally:
            first.stop()
        assert snap.exists()

        second = TraceService(snapshot_path=snap).start()
        try:
            client = ServiceClient(second.url)
            (summary,) = client.runs()
            assert not summary["complete"]
            client.push(source, "w", stride=2, offset=1, register=False)
            assert client.report_text("w") == batch_texts[seed]
        finally:
            second.stop()

    def test_snapshot_preserves_parked_chunks(self, tmp_path, frames):
        source = _source(frames, 3)
        snap = tmp_path / "restart.log"
        first = TraceService(snapshot_path=snap).start()
        try:
            client = ServiceClient(first.url)
            client.register(source, "w")
            client.push_chunk("w", source.n_chunks - 1, source.chunk(source.n_chunks - 1))
        finally:
            first.stop()
        second = TraceService(snapshot_path=snap).start()
        try:
            (summary,) = ServiceClient(second.url).runs()
            assert summary["n_parked"] == 1
            assert summary["n_folded"] == 0
        finally:
            second.stop()

    def test_runs_identical_after_restart(self, tmp_path, frames):
        """Parked chunks and duplicate counts survive the restart."""
        source = _source(frames, 3)
        snap = tmp_path / "service.log"
        with TraceService(snapshot_path=snap) as first:
            client = ServiceClient(first.url)
            client.register(source, "w")
            client.register(_source(frames, 11), "v")
            for seq in (0, 2, 3, 0, 3):
                client.push_chunk("w", seq, source.chunk(seq))
            client.push_chunk("v", 0, _source(frames, 11).chunk(0))
            before = client.runs()
        w = next(r for r in before if r["run"] == "w")
        assert (w["n_parked"], w["n_duplicates"]) == (2, 2)
        with TraceService(snapshot_path=snap) as second:
            assert ServiceClient(second.url).runs() == before

    def test_log_holds_the_wire_bytes_in_order(self, tmp_path, frames):
        """The registration first, then every frame (duplicates too), each
        on disk as soon as it is acknowledged."""
        source = _source(frames, 3)
        snap = tmp_path / "service.log"
        with TraceService(snapshot_path=snap) as svc:
            client = ServiceClient(svc.url)
            client.register(source, "w")
            client.register(source, "w")  # idempotent: not logged again
            sent = [(seq, source.chunk(seq)) for seq in (1, 0, 1)]
            for seq, events in sent:
                client.push_chunk("w", seq, events)
            records = [body for _, body in _log_records(snap)]
        assert json.loads(records[0])["run"] == "w"
        assert records[1:] == [encode_chunk("w", s, e) for s, e in sent]

    def test_concurrent_pushes_log_whole_records_in_order(
        self, tmp_path, frames
    ):
        """Four pushers of two runs (more threads than cores, a short
        switch interval) log every record whole and no chunk ahead of its
        run's registration; replaying the log rebuilds ``/runs``."""
        snap = tmp_path / "service.log"
        errors: list[Exception] = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TraceService(snapshot_path=snap) as svc:

                def push(seed: int, offset: int) -> None:
                    try:
                        ServiceClient(svc.url).push(
                            _source(frames, seed), f"run{seed}",
                            stride=2, offset=offset,
                        )
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=push, args=(seed, offset))
                    for seed in SEEDS for offset in (0, 1)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                before = ServiceClient(svc.url).runs()
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert all(r["complete"] for r in before)
        registered: set[str] = set()
        for _, body in _log_records(snap):
            if body.startswith(b"RWIRE1"):
                assert decode_chunk(body)[0] in registered
            else:
                registered.add(json.loads(body)["run"])
        assert registered == {f"run{seed}" for seed in SEEDS}
        with TraceService(snapshot_path=snap) as second:
            assert ServiceClient(second.url).runs() == before

    def test_ingest_after_stop_is_refused(self, tmp_path, frames):
        """A request still in flight when the drain closes the log is
        refused rather than acknowledged without a log record."""
        source = _source(frames, 3)
        svc = TraceService(snapshot_path=tmp_path / "service.log").start()
        ServiceClient(svc.url).register(source, "w")
        svc.stop()
        with pytest.raises(ServiceError, match="draining"):
            svc.ingest(encode_chunk("w", 0, source.chunk(0)))

    def test_stop_fsyncs_and_closes_the_log(self, tmp_path, monkeypatch):
        import repro.service.daemon as daemon

        synced: list[int] = []
        monkeypatch.setattr(daemon.os, "fsync", synced.append)
        svc = TraceService(snapshot_path=tmp_path / "service.log").start()
        fileno = svc._log.fileno()
        svc.stop()
        assert synced == [fileno] and svc._log.closed
        svc.stop()  # idempotent
        assert synced == [fileno]

    @pytest.mark.parametrize(
        "cut", [1, 2, 8, "body", "body+1", "body+7", "record"]
    )
    def test_torn_last_record_dropped(
        self, tmp_path, frames, batch_texts, caplog, cut
    ):
        """A crash mid-append tears the last record: the restarted daemon
        drops it with one warning, and re-pushing that chunk completes a
        byte-identical report."""
        source = _source(frames, 3)
        snap = tmp_path / "service.log"
        with TraceService(snapshot_path=snap) as first:
            ServiceClient(first.url).push(source, "w")
        last_off, last_body = _log_records(snap)[-1]
        cut = {
            "body": len(last_body),
            "body+1": len(last_body) + 1,
            "body+7": len(last_body) + 7,
            "record": len(last_body) + 8,
        }.get(cut, cut)
        data = snap.read_bytes()
        snap.write_bytes(data[: len(data) - cut])
        caplog.set_level("WARNING", logger="repro.service")
        with TraceService(snapshot_path=snap) as second:
            torn = [r for r in caplog.records if "torn record" in r.message]
            # cutting the whole record leaves nothing torn behind
            assert len(torn) == (0 if cut == len(last_body) + 8 else 1)
            assert snap.stat().st_size == last_off
            client = ServiceClient(second.url)
            (summary,) = client.runs()
            assert summary["n_folded"] == source.n_chunks - 1
            last = source.n_chunks - 1
            assert client.push_chunk("w", last, source.chunk(last))[
                "status"
            ] == "folded"
            assert client.report_text("w") == batch_texts[3]
        # the re-pushed chunk was appended after the cut: a third daemon
        # replays the whole run without a warning
        caplog.clear()
        with TraceService(snapshot_path=snap) as third:
            assert ServiceClient(third.url).report_text("w") == batch_texts[3]
        assert not [r for r in caplog.records if "torn record" in r.message]

    def test_file_without_log_magic_refused(self, tmp_path):
        import pickle

        snap = tmp_path / "old.pkl"
        snap.write_bytes(pickle.dumps({"version": 2, "runs": []}))
        with pytest.raises(ServiceError, match="log magic"):
            TraceService(snapshot_path=snap)
        assert snap.read_bytes() == pickle.dumps({"version": 2, "runs": []})

    def test_version_1_frame_names_its_offset(self, tmp_path, frames):
        """A log written by a version-1 daemon holds version-1 frames: the
        restart stops at the first one, naming its byte offset and both
        wire versions."""
        source = _source(frames, 3)
        snap = tmp_path / "service.log"
        with TraceService(snapshot_path=snap) as first:
            client = ServiceClient(first.url)
            client.register(source, "w")
            client.push_chunk("w", 0, source.chunk(0))
        _, (off, body) = _log_records(snap)
        data = snap.read_bytes()
        old = body.replace(b'{"v":2,', b'{"v":1,', 1)
        assert len(old) == len(body) and old != body
        snap.write_bytes(data[: off + 8] + old + data[off + 8 + len(body) :])
        with pytest.raises(
            ServiceError,
            match=rf"record at byte {off} failed to replay: wire version 1 "
            r"not supported \(this daemon speaks version 2\)",
        ):
            TraceService(snapshot_path=snap)

    def test_failing_record_names_its_offset(self, tmp_path, frames):
        """A whole record that does not replay (a chunk of a run that was
        never registered) stops the restart, naming where it sits."""
        snap = tmp_path / "service.log"
        frame = encode_chunk("ghost", 0, frames[3].events[:10])
        snap.write_bytes(
            LOG_MAGIC + struct.pack("<Q", len(frame)) + frame
        )
        with pytest.raises(
            ServiceError, match=f"record at byte {len(LOG_MAGIC)}.*ghost"
        ):
            TraceService(snapshot_path=snap)


# -- daemon self-telemetry ----------------------------------------------------


class TestServiceTelemetry:
    def test_metrics_families_round_trip(self, frames):
        """≥4 service.* families pass the Prometheus exposition validator."""
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            client.push(source, "w")
            client.report_text("w")
            text = client.metrics_text()
        families = parse_prometheus(text)
        service_families = {
            name for name in families if name.startswith("repro_service_")
        }
        assert len(service_families) >= 4
        # the ISSUE's named quartet: ingest counters, fold-latency
        # histogram, queue-depth gauge, active-runs gauge
        assert "repro_service_ingest_chunks_total" in service_families
        assert "repro_service_fold_latency_s" in service_families
        assert "repro_service_queue_parked_chunks" in service_families
        assert "repro_service_runs_active" in service_families
        counts = {
            n: v
            for n, _, v in families["repro_service_ingest_chunks_total"][
                "samples"
            ]
        }
        assert (
            counts["repro_service_ingest_chunks_total"] == source.n_chunks
        )

    def test_health_and_gauges(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            health = client.wait_healthy()
            assert health["status"] == "ok"
            assert health["n_runs"] == 0
            client.push(source, "w")
            assert client.health()["n_complete"] == 1
            gauges = svc._observer.gauges
            assert gauges["service.runs.complete"] == 1
            assert gauges["service.runs.active"] == 0
            assert gauges["service.queue.parked_chunks"] == 0

    def test_run_lifecycle_lands_in_the_trace_log(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            ServiceClient(svc.url).push(source, "w")
            names = [e["name"] for e in svc._observer.tracelog.events]
        assert "run/w/registered" in names
        assert "run/w/complete" in names

    def test_sampler_ring_live(self, frames):
        with TraceService(sample_period_s=0.01) as svc:
            client = ServiceClient(svc.url)
            client.push(_source(frames, 3), "w")
            client.wait_complete("w", timeout=10)
            client.metrics_text()  # peeks the ring from a request thread
            deadline_samples = svc._observer.sampler.peek()["samples"]
        assert deadline_samples  # the background thread really sampled

    def test_rejected_ingest_counted(self, frames):
        with TraceService() as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError, match="400"):
                client._request("POST", "/ingest", b"garbage")
            assert (
                svc._observer.counters["service.ingest.rejected_total"] == 1
            )

    def test_ephemeral_port_resolved(self):
        with TraceService(port=0) as svc:
            assert svc.port != 0
            assert str(svc.port) in svc.url
            ServiceClient(svc.url).wait_healthy()

    def test_repeated_scrapes_keep_the_sampler_ring(self):
        # a 60 s period: the ring holds only the samples taken before the
        # scrapes, so a /metrics that drained the ring would show here
        with TraceService(sample_period_s=60.0) as svc:
            sampler = svc._observer.sampler
            sampler.sample_once()
            before = sampler.peek()["samples"]
            client = ServiceClient(svc.url)
            client.metrics_text()
            client.metrics_text()
            after = sampler.peek()["samples"]
        assert before
        assert after[: len(before)] == before


class TestRouter:
    """The router under the daemon: routing, stopping, rebinding."""

    def test_unknown_route_is_a_json_404(self):
        with TraceService() as svc:
            with pytest.raises(ServiceError) as err:
                ServiceClient(svc.url)._request("GET", "/nope")
        assert str(err.value) == (
            "GET /nope failed with HTTP 404: no such route /nope"
        )

    def test_port_is_unresolved_until_start(self):
        svc = TraceService(port=0)
        assert svc.port == 0  # nothing is bound before start()
        svc.start()
        try:
            assert svc.port != 0
            assert f":{svc.port}" in svc.url
        finally:
            svc.stop()

    def test_url_names_the_host_and_bound_port(self):
        with TraceService() as svc:
            assert svc.port > 0
            assert svc.url == f"http://127.0.0.1:{svc.port}"

    def test_port_rebinds_at_once_after_stop(self):
        # SO_REUSEADDR: a restarted daemon takes its old port back at
        # once instead of waiting out TIME_WAIT
        first = TraceService().start()
        port = first.port
        ServiceClient(first.url).wait_healthy()
        first.stop()
        with TraceService(port=port) as second:
            assert second.port == port
            assert ServiceClient(second.url).health()["status"] == "ok"

    def test_second_stop_is_a_noop_and_the_port_refuses(self):
        svc = TraceService().start()
        port = svc.port
        ServiceClient(svc.url).wait_healthy()
        svc.stop()
        svc.stop()
        assert svc.wait(timeout=0)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5)

    def test_server_class_flags(self):
        from http.server import ThreadingHTTPServer

        assert issubclass(ReusableThreadingHTTPServer, ThreadingHTTPServer)
        assert ReusableThreadingHTTPServer.allow_reuse_address is True
        assert ReusableThreadingHTTPServer.daemon_threads is True
