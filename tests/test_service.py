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
import threading

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
from repro.service.figdata import REPORT_FIGURES, figdata_from_report
from repro.trace.frame import JOB_DTYPE
from repro.trace.store import FrameSource
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import ames1993
from tests.test_obs_metrics import parse_prometheus

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


class TestWire:
    def test_chunk_round_trip(self, frames):
        events = frames[3].events[:500]
        frame = encode_chunk("r1", 4, events)
        run, seq, out = decode_chunk(frame)
        assert (run, seq) == ("r1", 4)
        assert np.array_equal(out, events)

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
        frame = encode_chunk("r", 0, frames[3].events[:10])
        bad = frame.replace(b'{"v":1,', b'{"v":9,', 1)
        with pytest.raises(ServiceError, match="version"):
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
                assert got["x"] == pytest.approx(np.asarray(xs, float).tolist())
                assert got["y"] == pytest.approx(np.asarray(ys, float).tolist())

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


# -- restart from drain snapshot ---------------------------------------------


class TestSnapshotRestart:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_stream_restart_byte_identity(
        self, tmp_path, frames, batch_texts, seed
    ):
        """Push half, drain, restart from snapshot, push the rest."""
        source = _source(frames, seed)
        snap = tmp_path / "service.snapshot.pkl"
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
        snap = tmp_path / "snap.pkl"
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


    def test_older_snapshot_version_refused(self, tmp_path):
        import pickle

        from repro.service.daemon import SNAPSHOT_VERSION

        snap = tmp_path / "old.pkl"
        snap.write_bytes(pickle.dumps(
            {"version": SNAPSHOT_VERSION - 1, "runs": []}
        ))
        with pytest.raises(ServiceError, match="version"):
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

    def test_flight_recorder_run_spans(self, frames):
        source = _source(frames, 3)
        with TraceService() as svc:
            ServiceClient(svc.url).push(source, "w")
            names = [e["name"] for e in svc._observer.flight.events()]
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
