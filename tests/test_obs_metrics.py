"""The metrics pipeline: histograms, sampler, exporters, the bounded
event log, and the perf-regression gate.

Five promises are pinned here.  Histograms keep count, sum, min and max
exact, and batch recording matches one-by-one recording.  Quantile
estimates bracket the true sample quantile.  The Prometheus export is valid text
exposition format with monotone cumulative buckets.  ``obs diff``
detects a synthetic slowdown and exits nonzero.  And an unhandled CLI
crash leaves its reason and the trace log's tail in the run report.
"""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cli import main
from repro.errors import ObsReportError, TraceFormatError
from repro.obs import (
    Histogram,
    Observer,
    RunReport,
    Sampler,
    TraceContext,
    TraceLog,
)
from repro.obs.export import to_jsonl, to_prometheus
from repro.obs.hist import BASE, bucket_index
from repro.obs.regress import compare, compare_files, direction_of, load_metrics


@pytest.fixture(autouse=True)
def _reset_observer():
    obs.disable()
    yield
    obs.disable()


def hist_of(values) -> Histogram:
    h = Histogram()
    for v in values:
        h.add(v)
    return h


finite_values = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        with pytest.raises(ValueError, match="empty histogram"):
            h.quantile(0.5)

    def test_exact_aggregates(self):
        h = hist_of([1.0, 2.0, 3.0, 0.0])
        assert h.count == 4
        assert h.sum == 6.0
        assert h.min == 0.0
        assert h.max == 3.0
        assert h.zero == 1

    def test_bucket_index_is_monotone(self):
        values = [10.0 ** e for e in range(-6, 7)]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)

    def test_add_many_matches_add(self):
        import numpy as np

        values = [0.0, 0.5, 1.0, 7.0, 7.1, 1e6]
        a = hist_of(values)
        b = Histogram()
        b.add_many(np.array(values))
        assert a.to_dict() == b.to_dict()

    def test_dict_round_trip(self):
        h = hist_of([0.1, 2.0, 300.0])
        clone = Histogram.from_dict(h.to_dict())
        assert clone.to_dict() == h.to_dict()

    def test_cumulative_buckets_are_monotone_and_end_at_count(self):
        h = hist_of([0.0, 0.2, 0.2, 5.0, 800.0])
        cum = [c for _, c in h.cumulative_buckets()]
        assert cum == sorted(cum)
        assert cum[-1] == h.count

    @given(st.lists(finite_values, min_size=1, max_size=40),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=120)
    def test_quantile_bounds_bracket_true_quantile(self, xs, q):
        h = hist_of(xs)
        rank = max(1, math.ceil(q * len(xs)))
        true_q = sorted(xs)[rank - 1]
        lo, hi = h.quantile_bounds(q)
        assert lo <= true_q <= hi
        # the reported estimate is the bucket's upper edge
        assert h.quantile(q) == hi
        # and the bucket is tight: one log-step wide or pinned by min/max
        if true_q > 0:
            assert hi <= max(true_q * BASE, h.max)


class TestEventLog:
    def test_events_come_back_in_order(self):
        log = TraceLog(TraceContext.root(), capacity=8)
        log.record("dispatch", "a")
        log.record("requeue", "b", value=5)
        events = list(log.events)
        assert [e["ev"] for e in events] == ["dispatch", "requeue"]
        assert events[0]["t"] <= events[1]["t"]
        assert events[1]["value"] == 5

    def test_full_log_keeps_the_newest_events(self):
        log = TraceLog(TraceContext.root(), capacity=4)
        for i in range(10):
            log.record("tick", str(i))
        events = list(log.events)
        assert len(events) == 4
        assert [e["name"] for e in events] == ["6", "7", "8", "9"]
        assert log.n_dropped == 6
        payload = log.payload()
        assert [e["name"] for e in payload["events"]] == ["6", "7", "8", "9"]
        assert payload["n_dropped"] == 6

    def test_report_carries_the_events(self, tmp_path):
        observer = Observer(TraceContext.root())
        observer.event("dispatch", "x", index=0)
        path = tmp_path / "run.json"
        observer.report(command=["x"]).save(path)
        payload = json.loads(path.read_text())
        assert payload["trace"]["events"][0]["name"] == "x"
        assert payload["trace"]["events"][0]["index"] == 0

    def test_cli_crash_is_recorded_in_the_report(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        with pytest.raises(TraceFormatError):
            main(["--obs", str(report), "characterize",
                  str(tmp_path / "missing.npz")])
        assert not (tmp_path / "run.json.flight.json").exists()
        loaded = RunReport.load(report)
        assert "TraceFormatError" in loaded.notes["cli.crash"]
        errors = [
            e for e in loaded.trace["events"]
            if e["ev"] == "E" and e["name"] == "cli/characterize"
        ]
        assert [e["error"] for e in errors] == ["TraceFormatError"]
        assert "[obs]" in capsys.readouterr().err

    def test_span_events_reach_the_log(self):
        observer = obs.enable(TraceContext.root())
        with obs.span("work"):
            pass
        events = list(observer.tracelog.events)
        assert [(e["ev"], e["name"]) for e in events] == [
            ("B", "work"), ("E", "work"),
        ]


class TestSampler:
    def test_sample_once_contents(self):
        observer = obs.enable()
        obs.add("ticks", 3)
        obs.gauge("depth", 2.0)
        sampler = Sampler(observer, period_s=9.0)
        s = sampler.sample_once()
        assert s["rss_bytes"] > 0
        assert s["cpu_s"] >= 0.0
        assert s["counter_deltas"] == {"ticks": 3.0}
        assert s["gauges"] == {"depth": 2.0}
        # deltas reset between samples
        assert sampler.sample_once()["counter_deltas"] == {}

    def test_flush_reports_schema_and_samples(self):
        observer = obs.enable()
        sampler = Sampler(observer, period_s=0.01, capacity=64)
        sampler.start()
        deadline_samples = 2
        import time as _time

        for _ in range(200):
            if len(sampler._ring) >= deadline_samples:
                break
            _time.sleep(0.01)
        ts = sampler.flush()
        assert ts["version"] == 1
        assert ts["period_s"] == 0.01
        assert ts["n_samples"] == len(ts["samples"]) >= deadline_samples
        assert ts["n_dropped"] == 0

    def test_report_carries_timeseries(self):
        observer = obs.enable()
        sampler = Sampler(observer, period_s=5.0)
        sampler.start()
        report = observer.report(command=["t"], timeseries=sampler.flush())
        assert report.timeseries["n_samples"] >= 1
        clone = RunReport.from_json(report.to_json())
        assert clone.timeseries == report.timeseries
        assert "timeseries:" in clone.render()


# -- a tiny validator for the Prometheus text exposition format -------------

_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]Inf)$'
)


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse text-format exposition into ``{family: {type, samples}}``,
    asserting the structural rules a real scraper enforces."""
    families: dict[str, dict] = {}
    declared = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            declared = line.split()[2]
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            assert name == declared, f"TYPE {name} without preceding HELP"
            assert kind in {"counter", "gauge", "histogram"}
            families[name] = {"type": kind, "samples": []}
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        m = _SAMPLE.match(line)
        assert m, f"malformed sample line: {line!r}"
        name, labels, value = m.groups()
        base = re.sub(r"_(bucket|sum|count|total)$", "", name)
        family = name if name in families else base
        assert family in families, f"sample {name} has no TYPE"
        families[family]["samples"].append(
            (name, labels or "", float(value.replace("Inf", "inf")))
        )
    for name, fam in families.items():
        assert fam["samples"], f"family {name} declared but empty"
        if fam["type"] == "histogram":
            buckets = [
                (labels, v) for n, labels, v in fam["samples"]
                if n.endswith("_bucket")
            ]
            cum = [v for _, v in buckets]
            assert cum == sorted(cum), f"{name} buckets not cumulative"
            assert 'le="+Inf"' in buckets[-1][0] or any(
                'le="+Inf"' in lbl for lbl, _ in buckets
            ), f"{name} lacks a +Inf bucket"
            count = [v for n, _, v in fam["samples"] if n.endswith("_count")]
            assert count and cum[-1] == count[0]
    return families


class TestExporters:
    def _report(self) -> RunReport:
        observer = Observer()
        with observer.span("alpha"):
            observer.add("rows", 3)
        observer.gauge("depth", 1.5)
        observer.hist("alpha.seconds", 0.25)
        observer.hist("alpha.seconds", 0.5)
        observer.note("note.name", "value")
        return observer.report(command=["x"])

    def test_prometheus_parses_and_has_all_kinds(self):
        fams = parse_prometheus(to_prometheus(self._report()))
        kinds = {f["type"] for f in fams.values()}
        assert kinds == {"counter", "gauge", "histogram"}
        assert "repro_run_wall_seconds" in fams
        assert "repro_rows_total" in fams
        assert "repro_alpha_seconds" in fams
        span_fam = fams["repro_span_wall_seconds_total"]
        assert any('path="alpha"' in lbl for _, lbl, _ in span_fam["samples"])

    def test_jsonl_lines_parse_and_cover_types(self):
        lines = to_jsonl(self._report()).strip().splitlines()
        records = [json.loads(line) for line in lines]
        types = {r["type"] for r in records}
        assert {"run", "counter", "gauge", "span", "histogram", "note"} <= types
        hist = next(r for r in records if r["type"] == "histogram")
        assert hist["count"] == 2 and hist["p50"] > 0


class TestRegressionGate:
    def test_direction_heuristics(self):
        assert direction_of("bench.indexed_seconds") == "lower"
        assert direction_of("peak_rss_bytes") == "lower"
        assert direction_of("speedup_best") == "higher"
        assert direction_of("cache.hit_rate") == "higher"
        assert direction_of("events") == "info"

    def test_compare_statuses(self):
        base = {"wall_s": 1.0, "speedup": 4.0, "events": 100.0}
        new = {"wall_s": 1.5, "speedup": 3.0, "events": 150.0}
        by_name = {d.metric: d for d in compare(base, new, threshold=0.1)}
        assert by_name["wall_s"].status == "regression"
        assert by_name["speedup"].status == "regression"
        assert by_name["events"].status == "info"
        improved = compare({"wall_s": 2.0}, {"wall_s": 1.0}, threshold=0.1)
        assert improved[0].status == "improvement"

    def test_zero_baseline_is_infinite_change(self):
        (d,) = compare({"wall_s": 0.0}, {"wall_s": 1.0}, threshold=0.1)
        assert math.isinf(d.rel_change)
        assert d.status == "regression"

    def test_kind_mismatch_is_an_error(self, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(
            {"schema": 1, "metrics": {"wall_s": 1.0}}
        ))
        report = tmp_path / "report.json"
        Observer().report(command=["x"]).save(report)
        with pytest.raises(ObsReportError, match="cannot compare"):
            compare_files(bench, report)

    def test_load_metrics_reads_all_three_kinds(self, tmp_path):
        report = tmp_path / "r.json"
        Observer().report(command=["x"]).save(report)
        assert load_metrics(report)[0] == "run-report"
        bench = tmp_path / "b.json"
        bench.write_text(json.dumps({"schema": 1, "metrics": {"a_s": 1.0}}))
        assert load_metrics(bench) == ("bench", {"a_s": 1.0})
        # a JSON without the bench envelope is refused, not flattened
        legacy = tmp_path / "l.json"
        legacy.write_text(json.dumps({"nested": {"t_s": 2.0}}))
        with pytest.raises(ObsReportError, match="neither a run report"):
            load_metrics(legacy)

    def test_cli_diff_gates_synthetic_slowdown(self, tmp_path, capsys):
        base = {"schema": 1, "metrics": {"indexed_seconds": 1.0, "events": 5.0}}
        new = {"schema": 1, "metrics": {"indexed_seconds": 1.12, "events": 5.0}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(new))
        assert main(["obs", "diff", str(a), str(b), "--threshold", "0.1"]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "indexed_seconds" in out
        # under a looser threshold the same pair passes
        assert main(["obs", "diff", str(a), str(b), "--threshold", "0.2"]) == 0

    def test_cli_diff_metric_filter(self, tmp_path, capsys):
        base = {"schema": 1, "metrics": {"x_seconds": 1.0, "y_seconds": 1.0}}
        new = {"schema": 1, "metrics": {"x_seconds": 2.0, "y_seconds": 1.0}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(new))
        assert main(["obs", "diff", str(a), str(b), "--metric", "y_*"]) == 0
        assert main(["obs", "diff", str(a), str(b), "--metric", "x_*"]) == 1


class TestCLIErrorPaths:
    def test_obs_show_missing_file(self, tmp_path, capsys):
        assert main(["obs", "show", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.json" in err

    def test_obs_show_truncated_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 2, "spans": {')
        assert main(["obs", "show", str(bad)]) == 1
        assert "truncated or invalid JSON" in capsys.readouterr().err

    def test_obs_show_future_schema_version(self, tmp_path, capsys):
        observer = Observer()
        payload = observer.report(command=["x"]).to_dict()
        payload["version"] = 99
        future = tmp_path / "future.json"
        future.write_text(json.dumps(payload))
        assert main(["obs", "show", str(future)]) == 1
        assert "version 99" in capsys.readouterr().err

    def test_obsreport_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obsreport", str(tmp_path / "run.json")])
        assert exc.value.code == 2
        assert "invalid choice: 'obsreport'" in capsys.readouterr().err

    def test_v1_reports_still_load(self):
        observer = Observer()
        payload = observer.report(command=["x"]).to_dict()
        payload["version"] = 1
        for key in ("histograms", "timeseries", "notes"):
            payload.pop(key)
        report = RunReport.from_dict(payload)
        assert report.version == 1
        assert report.n_histograms == 0

    def test_obs_diff_unreadable_input(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"schema": 1, "metrics": {"x_s": 1.0}}))
        assert main(["obs", "diff", str(a), str(tmp_path / "gone.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_obs_sample_rejects_nonpositive_period(self, capsys):
        with pytest.raises(SystemExit):
            main(["--obs-sample", "0", "characterize", "--scale", "0.01"])
        assert "positive" in capsys.readouterr().err


class TestDiffSchemaGuards:
    """``obs diff`` surfaces schema drift instead of silently skipping."""

    def _pair(self, tmp_path, base_metrics, new_metrics,
              base_schema=1, new_schema=1):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"schema": base_schema,
                                 "metrics": base_metrics}))
        b.write_text(json.dumps({"schema": new_schema,
                                 "metrics": new_metrics}))
        return a, b

    def test_load_record_reports_schema_versions(self, tmp_path):
        from repro.obs.regress import load_record

        report = tmp_path / "r.json"
        Observer().report(command=["x"]).save(report)
        assert load_record(report)[:2] == ("run-report", 3)
        bench = tmp_path / "b.json"
        bench.write_text(json.dumps({"schema": 2, "metrics": {"a_s": 1.0}}))
        assert load_record(bench)[:2] == ("bench", 2)
        legacy = tmp_path / "l.json"
        legacy.write_text(json.dumps({"t_s": 2.0}))
        with pytest.raises(ObsReportError, match="neither a run report"):
            load_record(legacy)

    def test_cli_diff_non_integer_schema_is_an_error(self, tmp_path, capsys):
        a, _ = self._pair(tmp_path, {"a": 1.0}, {"a": 1.0}, base_schema="x")
        assert main(["obs", "diff", str(a), str(a)]) == 1
        assert "'schema' must be an integer, got 'x'" in capsys.readouterr().err

    def test_missing_metrics_split_and_filter(self):
        from repro.obs.regress import missing_metrics

        only_base, only_new = missing_metrics(
            {"a_s": 1.0, "b_s": 1.0}, {"b_s": 1.0, "c_s": 1.0}
        )
        assert (only_base, only_new) == (["a_s"], ["c_s"])
        only_base, only_new = missing_metrics(
            {"a_s": 1.0, "zz": 1.0}, {"c_s": 1.0}, patterns=["*_s"]
        )
        assert (only_base, only_new) == (["a_s"], ["c_s"])

    def test_cli_diff_warns_on_one_sided_metrics(self, tmp_path, capsys):
        a, b = self._pair(
            tmp_path,
            {"shared_s": 1.0, "retired_s": 2.0},
            {"shared_s": 1.0, "added_s": 3.0},
        )
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert f"warning: metric retired_s missing from {b}" in out
        assert f"warning: metric added_s missing from {a}" in out
        assert "skipped" in out

    def test_cli_diff_exits_1_on_schema_version_mismatch(
        self, tmp_path, capsys
    ):
        a, b = self._pair(
            tmp_path, {"x_s": 1.0}, {"x_s": 1.0},
            base_schema=1, new_schema=2,
        )
        assert main(["obs", "diff", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "schema version mismatch" in err
        assert "regenerate the baseline" in err

    def test_cli_diff_committed_baseline_vs_itself_passes(self, capsys):
        from pathlib import Path

        baseline = Path("benchmarks/BENCH_obs_overhead.json")
        assert baseline.exists()
        assert main(["obs", "diff", str(baseline), str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "warning:" not in out and "mismatch" not in out


class TestAcceptance:
    def test_export_covers_five_layers_of_histograms(self, tmp_path):
        """An observed end-to-end run exports >= 5 histogram families
        spanning the machine, CFS, caching, and characterization
        layers."""
        from repro.caching.io_node import sweep_buffer_counts
        from repro.core import characterize
        from repro.workload import WorkloadGenerator, tiny

        observer = obs.enable()
        generated = WorkloadGenerator(tiny(1.0), seed=5).run("full")
        characterize(generated.frame)
        sweep_buffer_counts(generated.frame, [8, 32], policy="lru")
        report = observer.report(command=["acceptance"])

        fams = parse_prometheus(to_prometheus(report))
        hist_fams = {n for n, f in fams.items() if f["type"] == "histogram"}
        assert len(hist_fams) >= 5
        for prefix in ("repro_machine_", "repro_cfs_", "repro_caching_",
                       "repro_fused_"):
            assert any(n.startswith(prefix) for n in hist_fams), (
                f"no histogram family for {prefix}: {sorted(hist_fams)}"
            )


class TestSamplerConcurrency:
    def test_peek_safe_against_concurrent_sampling(self):
        """peek() from reader threads while sample_once() appends.

        Unlocked, ``list(deque)`` raises RuntimeError the moment the
        sampling thread mutates the ring mid-copy; the trace service's
        ``/metrics`` peeks from HTTP request threads, so this must never
        happen.
        """
        import threading

        observer = obs.enable()
        sampler = Sampler(observer, period_s=60.0, capacity=8)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer() -> None:
            while not stop.is_set():
                obs.add("ticks")
                sampler.sample_once()

        def reader() -> None:
            try:
                while not stop.is_set():
                    ts = sampler.peek()
                    assert len(ts["samples"]) <= sampler.capacity
                    assert ts["n_dropped"] >= 0
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not errors

    def test_peek_consistent_with_flush(self):
        observer = obs.enable()
        sampler = Sampler(observer, period_s=60.0, capacity=4)
        for _ in range(9):
            sampler.sample_once()
        peeked = sampler.peek()
        assert peeked["n_samples"] == 9
        assert len(peeked["samples"]) == 4
        assert peeked["n_dropped"] == 5
        flushed = sampler.flush()
        assert flushed["n_dropped"] >= peeked["n_dropped"]
