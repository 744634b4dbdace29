"""Tests for the command-line interface."""

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.errors import TraceFormatError
from repro.obs import RunReport


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    # 4096-event chunks, as CI writes: push sends several chunks and
    # characterize streams more than one
    path = tmp_path_factory.mktemp("cli") / "trace.store"
    rc = main(["generate", "--scale", "0.02", "--seed", "3", "--out", str(path),
               "--chunk-size", "4096"])
    assert rc == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestCommands:
    def test_generate_writes_trace(self, trace_path, capsys):
        assert trace_path.exists()

    def test_characterize(self, trace_path, capsys):
        assert main(["characterize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "mode-0 files" in out

    def test_characterize_on_the_fly(self, capsys):
        assert main(["characterize", "--scale", "0.02", "--seed", "3"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_figures_single(self, trace_path, capsys):
        assert main(["figures", str(trace_path), "--figure", "fig3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fig3:")

    def test_figures_svg_output(self, trace_path, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", str(trace_path), "--svg", str(out),
                     "--figure", "fig4"]) == 0
        files = list(out.glob("*.svg"))
        assert len(files) == 1
        assert files[0].read_text().startswith("<?xml")

    def test_figures_all(self, trace_path, capsys):
        assert main(["figures", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig9" in out

    def test_cache_fig8(self, trace_path, capsys):
        assert main(["cache", str(trace_path), "--experiment", "fig8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_cache_fig9(self, trace_path, capsys):
        rc = main([
            "cache", str(trace_path), "--experiment", "fig9",
            "--policy", "lru", "--buffers", "50", "200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lru" in out and "200" in out

    def test_cache_combined(self, trace_path, capsys):
        assert main(["cache", str(trace_path), "--experiment", "combined"]) == 0
        assert "reduction" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["--experiment", "fig8", "--buffers", "0"], "--buffers"),
        (["--policy", "nope"], "--policy"),
        (["--experiment", "fig9", "--buffers", "-5"], "--buffers"),
        (["--io-nodes", "0"], "--io-nodes"),
        (["--engine", "stackdist"], "--engine"),  # the option is gone
        # a flag the experiment does not read is refused, naming both
        (["--experiment", "combined", "--policy", "fifo"], "--policy: --experiment combined"),
        (["--experiment", "fig8", "--policy", "lru"], "--policy: --experiment fig8"),
        (["--experiment", "disktime", "--policy", "opt"], "--policy: --experiment disktime"),
        (["--experiment", "prefetch", "--policy", "lru"], "--policy: --experiment prefetch"),
        (["--experiment", "disktime", "--buffers", "100", "300"],
         "--buffers: --experiment disktime"),
        (["--experiment", "prefetch", "--buffers", "100", "300"],
         "--buffers: --experiment prefetch"),
        (["--experiment", "combined", "--buffers", "100"], "--buffers: --experiment combined"),
    ], ids=["fig8-buffers-0", "policy-nope", "fig9-buffers-negative", "io-nodes-0",
            "engine-removed", "combined-policy", "fig8-policy", "disktime-policy",
            "prefetch-policy", "disktime-two-buffers", "prefetch-two-buffers",
            "combined-buffers"])
    def test_cache_rejects_bad_input_before_generating(
        self, argv, flag, capsys, monkeypatch
    ):
        def no_trace(args):
            raise AssertionError("generated a trace for a bad command line")

        monkeypatch.setattr("repro.cli._generate_frame", no_trace)
        try:
            rc = main(["cache", "--scale", "0.01", *argv])
        except SystemExit as exc:  # argparse rejects it while parsing
            rc = exc.code
        assert rc == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["generate", "--scale", "0.01", "--out", "x.store", "--workers", "2"],
         "unrecognized arguments: --workers"),
        (["generate", "--scale", "0.01", "--out", "x.store", "--pipeline",
          "full", "--shards", "2"], "unrecognized arguments: --shards"),
        (["characterize", "--scale", "0.01", "--shards", "2"],
         "unrecognized arguments: --shards"),
        (["characterize", "--scale", "0.01", "--pipeline", "full",
          "--shards", "2"], "unrecognized arguments: --shards"),
        (["characterize", "--scale", "0.01", "--workers", "2"],
         "unrecognized arguments: --workers"),
        (["characterize", "--scale", "0.01", "x.store", "--store",
          "--workers", "2"], "unrecognized arguments: --store --workers"),
        (["figures", "--scale", "0.01", "--workers", "2"],
         "unrecognized arguments: --workers"),
        (["cache", "--scale", "0.01", "--experiment", "fig9", "--workers",
          "2"], "unrecognized arguments: --workers"),
        (["generate", "--scale", "0.01", "--out", "x.store", "--store"],
         "unrecognized arguments: --store"),
        (["characterize", "--scale", "0.01", "--store"],
         "unrecognized arguments: --store"),
        (["characterize", "--scale", "0.01", "--chunk-size", "4096"],
         "unrecognized arguments: --chunk-size"),
        (["cache", "--scale", "0.01", "--experiment", "fig9", "--store"],
         "unrecognized arguments: --store"),
        (["cache", "--scale", "0.01", "--experiment", "fig9", "--chunk-size",
          "4096"], "unrecognized arguments: --chunk-size"),
        (["push", "x.store", "--url", "http://127.0.0.1:1",
          "--chunk-size", "2048"], "unrecognized arguments: --chunk-size"),
        # a report is read from its file; nothing serves it over HTTP
        (["--obs-serve", "0", "characterize", "--scale", "0.01"],
         "invalid choice: '0'"),
        (["obs", "serve", "r.json"], "invalid choice: 'serve'"),
    ], ids=["generate-workers", "generate-full-shards", "characterize-shards",
            "characterize-full-shards", "characterize-workers",
            "characterize-store-workers", "figures-workers", "cache-workers",
            "generate-store", "characterize-store", "characterize-chunk-size",
            "cache-store", "cache-chunk-size", "push-chunk-size",
            "obs-serve-flag", "obs-serve-command"])
    def test_removed_generation_flags_exit_2_before_generating(
        self, argv, error, capsys, monkeypatch
    ):
        def no_trace(args):
            raise AssertionError("generated a trace for a bad command line")

        monkeypatch.setattr("repro.cli._resolve_generator", no_trace)
        monkeypatch.setattr("repro.cli._generate_frame", no_trace)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_generate_chunk_size_below_1_exits_2_before_generating(
        self, size, tmp_path, capsys, monkeypatch
    ):
        def no_trace(args):
            raise AssertionError("generated a trace for a bad command line")

        monkeypatch.setattr("repro.cli._resolve_generator", no_trace)
        out = tmp_path / "x.store"
        with pytest.raises(SystemExit) as info:
            main(["generate", "--scale", "0.01", "--out", str(out),
                  "--chunk-size", size])
        assert info.value.code == 2
        assert f"--chunk-size: must be >= 1, got {size}" in capsys.readouterr().err
        assert not out.exists()

    def test_cache_policy_is_case_insensitive(self, trace_path, capsys):
        rc = main(["cache", str(trace_path), "--policy", "LRU", "--buffers", "50"])
        assert rc == 0
        assert "lru" in capsys.readouterr().out

    def test_strided(self, trace_path, capsys):
        assert main(["strided", str(trace_path)]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_reproduce(self, trace_path, capsys):
        assert main(["reproduce", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Caching" in out and "Strided" in out

    def test_reproduce_json(self, trace_path, capsys):
        import json

        assert main(["reproduce", str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "caching" in payload and "files" in payload
        assert 0 <= payload["requests"]["reads_small_fraction"] <= 1

    def test_validate(self, trace_path, capsys):
        main(["validate", str(trace_path)])
        out = capsys.readouterr().out
        assert "calibration (synthetic):" in out and "mode-0" in out

    def test_dump(self, trace_path, capsys):
        assert main(["dump", str(trace_path), "--limit", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5


class TestEngineCli:
    @pytest.fixture(scope="class")
    def drift_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-drift") / "drift.store"
        rc = main(["generate", "--scenario", "drift", "--scale", "0.003",
                   "--seed", "3", "--out", str(path)])
        assert rc == 0
        return path

    def test_generate_engine_override(self, tmp_path, capsys):
        path = tmp_path / "t.store"
        rc = main(["generate", "--scenario", "tiny", "--engine", "drift",
                   "--scale", "0.003", "--seed", "3", "--out", str(path)])
        assert rc == 0
        assert "events" in capsys.readouterr().out

    def test_generate_with_mix_file(self, tmp_path, capsys):
        mix = tmp_path / "mix.json"
        mix.write_text('{"read": 1.0, "create": 1.0, "delete": 0.5}')
        path = tmp_path / "t.store"
        rc = main(["generate", "--scenario", "drift", "--mix", str(mix),
                   "--scale", "0.003", "--seed", "3", "--out", str(path)])
        assert rc == 0
        assert path.exists()

    def test_mix_without_drift_engine_rejected(self, tmp_path, capsys):
        mix = tmp_path / "mix.json"
        mix.write_text('{"read": 1.0}')
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--mix", str(mix), "--out",
                  str(tmp_path / "t.store")])
        assert exc.value.code == 2
        assert "--mix only applies" in capsys.readouterr().err

    def test_unknown_scenario_lists_available(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--scenario", "nope", "--out",
                  str(tmp_path / "t.store")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "ames1993" in err

    def test_unknown_engine_lists_available(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--engine", "nope", "--out",
                  str(tmp_path / "t.store")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload engine" in err and "drift" in err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "ames1993" in out and "drift" in out and "synthetic" in out
        assert "structural" in out and "marginals" in out

    def test_validate_drift_structural(self, drift_path, capsys):
        assert main(["validate", str(drift_path)]) == 0
        out = capsys.readouterr().out
        assert "structural (drift):" in out
        assert "marginal checks skipped" in out

    def test_characterize_drift_scenario_on_the_fly(self, capsys):
        rc = main(["characterize", "--scenario", "drift", "--scale",
                   "0.003", "--seed", "3"])
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out

    def test_figures_drift_skips_unsupported(self, drift_path, capsys):
        assert main(["figures", str(drift_path)]) == 0
        out = capsys.readouterr().out
        assert "fig8: skipped" in out and "fig9" in out

    def test_cache_drift(self, drift_path, capsys):
        rc = main(["cache", str(drift_path), "--experiment", "fig9",
                   "--policy", "lru", "--buffers", "50", "200"])
        assert rc == 0
        assert "lru" in capsys.readouterr().out


class TestObservability:
    @pytest.fixture(autouse=True)
    def _reset_observer(self):
        obs.disable()
        yield
        obs.disable()

    def test_obs_writes_run_report(self, trace_path, tmp_path, capsys):
        report_path = tmp_path / "run.json"
        argv = ["--obs", str(report_path), "characterize", str(trace_path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[obs]" in captured.err
        report = RunReport.load(report_path)
        assert report.command == argv
        assert "cli/characterize" in report.span_names()
        assert report.counters["core.characterizations"] == 1
        assert report.n_spans >= 5

    def test_obs_disabled_again_after_run(self, trace_path, tmp_path):
        assert main(["--obs", str(tmp_path / "r.json"),
                     "characterize", str(trace_path)]) == 0
        assert not obs.enabled()

    def test_obs_show_prints_report(self, trace_path, tmp_path, capsys):
        report_path = tmp_path / "run.json"
        main(["--obs", str(report_path), "characterize", str(trace_path)])
        capsys.readouterr()
        assert main(["obs", "show", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "obs run report" in out
        assert "cli/characterize" in out
        assert "counters" in out

    def test_obs_report_is_valid_json(self, trace_path, tmp_path):
        report_path = tmp_path / "run.json"
        main(["--obs", str(report_path), "strided", str(trace_path)])
        payload = json.loads(report_path.read_text())
        assert payload["version"] == 3
        assert payload["spans"]["name"] == "run"
        assert "histograms" in payload and "timeseries" in payload

    def test_without_obs_no_observer_installed(self, trace_path, capsys):
        assert main(["strided", str(trace_path)]) == 0
        assert not obs.enabled()
        assert "[obs]" not in capsys.readouterr().err

    def test_verbose_flag_logs_trace_loading(self, trace_path, caplog):
        with caplog.at_level(logging.INFO, logger="repro.cli"):
            assert main(["-v", "strided", str(trace_path)]) == 0
        assert any("loading trace" in r.message for r in caplog.records)

    def test_quiet_flag_parses(self, trace_path, capsys):
        assert main(["-q", "strided", str(trace_path)]) == 0


class TestTraceInfo:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-info") / "trace.ctrace"
        rc = main(["generate", "--scale", "0.02", "--seed", "3",
                   "--out", str(path), "--chunk-size", "4096"])
        assert rc == 0
        return path

    def test_human_store(self, store_path, capsys):
        assert main(["trace", "info", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "chunked columnar trace store" in out
        assert "time span" in out

    def test_json_store(self, store_path, capsys):
        assert main(["trace", "info", str(store_path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "store"
        assert info["n_chunks"] == len(info["chunks"])
        assert sum(c["n"] for c in info["chunks"]) == info["n_events"]
        assert info["header"]["machine"]
        # the directory is time-ordered like the event stream
        maxes = [c["t_max"] for c in info["chunks"]]
        assert maxes == sorted(maxes)

    def test_legacy_npz_is_named_in_the_error(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez_compressed(path, events=np.zeros(3))
        for argv in (["characterize", str(path)], ["trace", "info", str(path)]):
            with pytest.raises(TraceFormatError, match=r"legacy \.npz frame"):
                main(argv)

    def test_json_matches_source_info(self, store_path, capsys):
        from repro.trace.store import source_info

        assert main(["trace", "info", str(store_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == source_info(store_path)


class TestServeCli:
    def test_serve_prints_bound_port_and_drains(self, tmp_path, capsys):
        """`repro serve --port 0` resolves and reports the ephemeral port."""
        import re
        import threading
        import urllib.request

        from repro.service import ServiceClient

        snap = tmp_path / "snap.pkl"
        done = threading.Event()

        def run() -> None:
            main(["serve", "--snapshot", str(snap), "--duration", "30"])
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # the startup line lands on the captured stdout; poll for it
        import time

        url = None
        deadline = time.monotonic() + 10
        while url is None and time.monotonic() < deadline:
            m = re.search(r"trace service at (http://\S+)",
                          capsys.readouterr().out)
            if m:
                url = m.group(1)
            else:
                time.sleep(0.05)
        assert url, "serve never printed its URL"
        assert not url.endswith(":0")
        client = ServiceClient(url)
        assert client.wait_healthy()["status"] == "ok"
        client.shutdown()
        assert done.wait(10)
        assert snap.exists()

    def test_push_requires_url(self, trace_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["push", str(trace_path)])

    def test_push_and_report_round_trip(self, trace_path, capsys):
        """CLI push against an in-process daemon: report matches batch."""
        from repro.service import TraceService

        assert main(["characterize", str(trace_path)]) == 0
        batch = capsys.readouterr().out
        with TraceService() as svc:
            rc = main(["push", str(trace_path), "--url", svc.url,
                       "--run", "w", "--report"])
            assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("pushed ")
        served = out.split("\n", 1)[1]
        assert served == batch
