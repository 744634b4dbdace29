"""The self-tracing observability layer: spans, counters, reports.

Three promises are pinned here: span trees nest and merge correctly;
the disabled mode is a true no-op (characterization output is
byte-identical with observation on or off); and a run report survives
the JSON round trip the ``--obs``/``obs show`` pair depends on.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.caching import simulate_combined
from repro.core import characterize
from repro.errors import ObsReportError
from repro.obs import NULL_OBSERVER, Observer, RunReport, SpanNode
from repro.strided import coalesce_trace


@pytest.fixture(autouse=True)
def _reset_observer():
    """Every test starts and ends with observation disabled."""
    obs.disable()
    yield
    obs.disable()


class TestSpans:
    def test_nesting_builds_a_tree(self):
        observer = obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        outer = observer.root.children["outer"]
        assert outer.count == 1
        inner = outer.children["inner"]
        assert inner.count == 2
        assert observer.root.n_nodes() == 2
        assert observer.root.n_entries() == 3

    def test_repeated_spans_fold_into_one_node(self):
        observer = obs.enable()
        for _ in range(100):
            with obs.span("loop"):
                pass
        assert observer.root.n_nodes() == 1
        assert observer.root.children["loop"].count == 100

    def test_span_times_accumulate(self):
        observer = obs.enable()
        with obs.span("work"):
            sum(range(10000))
        node = observer.root.children["work"]
        assert node.wall_s > 0.0
        assert node.cpu_s >= 0.0

    def test_sibling_spans_stay_siblings(self):
        observer = obs.enable()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        assert set(observer.root.children) == {"a", "b"}

    def test_exception_inside_span_still_pops_stack(self):
        observer = obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert observer._stack == [observer.root]
        assert observer.root.children["boom"].count == 1


class TestCounters:
    def test_add_accumulates(self):
        observer = obs.enable()
        obs.add("c")
        obs.add("c", 4)
        obs.add("d", 2.5)
        assert observer.counters == {"c": 5, "d": 2.5}

    def test_gauge_last_write_wins(self):
        observer = obs.enable()
        obs.gauge("g", 1.0)
        obs.gauge("g", 7.0)
        assert observer.gauges == {"g": 7.0}

    def test_fused_scan_records_its_counters_and_span(self, small_frame):
        observer = obs.enable()
        characterize(small_frame)
        assert observer.counters["fused.chunks"] == 1
        assert observer.counters["fused.events"] == small_frame.n_events
        assert observer.counters["core.filestats.files"] > 0
        span_names = set(RunReport(spans=observer.root.to_dict()).span_names())
        assert "core/characterize_fused/scan" in span_names


class TestDisabledMode:
    def test_default_observer_is_the_null_singleton(self):
        assert obs.current() is NULL_OBSERVER
        assert not obs.enabled()

    def test_null_calls_are_noops(self):
        obs.add("never", 10)
        obs.gauge("never", 1.0)
        with obs.span("never"):
            pass
        assert obs.current() is NULL_OBSERVER

    def test_null_span_is_reused(self):
        assert obs.span("a") is obs.span("b")

    def test_characterize_output_identical_on_vs_off(self, small_frame):
        obs.disable()
        off = characterize(small_frame)
        off_text, off_dict = off.render(), json.dumps(off.to_dict(), sort_keys=True)

        obs.enable()
        on = characterize(small_frame)
        on_text, on_dict = on.render(), json.dumps(on.to_dict(), sort_keys=True)

        assert off_text == on_text
        assert off_dict == on_dict


class TestRunReport:
    def _sample(self):
        observer = Observer()
        with observer.span("alpha"):
            with observer.span("beta"):
                observer.add("rows", 12)
        observer.gauge("depth", 3.5)
        return observer.report(command=["characterize", "--scale", "0.01"])

    def test_json_round_trip(self):
        report = self._sample()
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
        assert clone.counters == {"rows": 12}
        assert clone.gauges == {"depth": 3.5}
        assert clone.n_spans == 2

    def test_save_and_load(self, tmp_path):
        report = self._sample()
        path = report.save(tmp_path / "run.json")
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_render_mentions_spans_and_counters(self):
        text = self._sample().render()
        assert "alpha" in text
        assert "beta" in text
        assert "rows" in text
        assert "characterize --scale 0.01" in text

    def test_saved_pool_note_still_renders(self):
        # reports saved while analyses fanned out name the slowest task;
        # it renders like any other note
        report = RunReport(notes={"pool.slowest_task": "fig9"},
                           gauges={"pool.slowest_task_s": 1.5})
        lines = report.render().splitlines()
        assert "notes (1):" in lines
        assert f"  {'pool.slowest_task':<52} fig9" in lines

    def test_span_node_round_trip(self):
        root = SpanNode("run")
        a = root.child("a")
        a.count, a.wall_s = 2, 0.5
        a.child("b").count = 1
        clone = SpanNode.from_dict(root.to_dict())
        assert clone.to_dict() == root.to_dict()

    def test_totals_are_positive(self):
        report = self._sample()
        assert report.wall_s > 0.0
        assert report.peak_rss_bytes > 0

    @pytest.mark.parametrize("field, text", [
        ("version", '"x"'),
        ("version", "null"),
        ("version", "1e999"),
        ("peak_rss_bytes", "1e999"),
        ("spans", '{"name": "run", "count": 0, "children": [5]}'),
        ("histograms", '{"h": 5}'),
        ("trace", '{"events": [5]}'),
        ("trace", '{"events": [{"ev": "B", "name": "x"}]}'),
    ], ids=["version-str", "version-null", "version-inf", "rss-inf",
            "span-child-int", "histogram-int", "trace-event-int",
            "trace-event-without-t"])
    def test_malformed_field_is_named(self, tmp_path, field, text):
        payload = json.loads(self._sample().to_json())
        payload[field] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload).replace('"@"', text))
        with pytest.raises(ObsReportError, match=f"field '{field}'"):
            RunReport.load(path).render()

    @pytest.mark.parametrize("data, why", [
        (b'{"version": 3, "wall_s": \xff}', "not UTF-8"),
        (b'{"version": 3, "wall_s": ' + b"1" * 5000 + b"}", "invalid JSON"),
    ], ids=["not-utf8", "int-5000-digits"])
    def test_unparseable_file_is_rejected(self, tmp_path, data, why):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ObsReportError, match=why):
            RunReport.load(path)


class TestLayerSpans:
    """Each stage ``reproduce`` runs times itself in a layer span."""

    @pytest.mark.parametrize("stage, span", [
        (simulate_combined, "caching/combined"),
        (coalesce_trace, "strided/coalesce"),
    ], ids=["simulate_combined", "coalesce_trace"])
    def test_stage_opens_its_span(self, full_pipeline_workload, stage, span):
        observer = obs.enable()
        stage(full_pipeline_workload.frame)
        node = observer.root.children[span]
        assert node.count == 1 and node.wall_s > 0.0

    def test_sweep_lines_builds_its_stream_inside_its_span(
        self, full_pipeline_workload, monkeypatch
    ):
        import repro.caching.sweeps as sweeps

        observer = obs.enable()
        open_at_build = []
        build = sweeps._resolve_stream

        def spy(*args):
            open_at_build.append(observer._stack[-1].name)
            return build(*args)

        monkeypatch.setattr(sweeps, "_resolve_stream", spy)
        sweeps.sweep_lines(full_pipeline_workload.frame, [8], ["lru"])
        assert open_at_build == ["caching/sweep_lines"]


class TestAllLayers:
    def test_full_pipeline_report_covers_every_layer(self, full_pipeline_workload):
        from repro.caching.io_node import sweep_buffer_counts
        from repro.caching.stackdist import compute_node_stack_profile

        observer = obs.enable()
        frame = full_pipeline_workload.frame
        # regenerate through the full pipeline under observation, then
        # run the analyzers and cache simulators over the result
        from repro.workload import WorkloadGenerator, tiny

        generated = WorkloadGenerator(tiny(1.0), seed=5).run("full")
        characterize(generated.frame)
        sweep_buffer_counts(generated.frame, [8, 32], policy="lru")
        compute_node_stack_profile(generated.frame).result_at(1)
        simulate_combined(generated.frame)
        report = observer.report(command=["test-all-layers"])

        names = set(report.counters) | set(report.gauges)
        layers = {
            "machine": [n for n in names if n.startswith("machine.")],
            "cfs": [n for n in names if n.startswith("cfs.")],
            "caching": [n for n in names if n.startswith("caching.")],
            "workload": [n for n in names if n.startswith("workload.")],
            "core": [n for n in names if n.startswith("core.")],
        }
        for layer, found in layers.items():
            assert found, f"no observations from the {layer} layer"
        distinct = set(report.span_names()) | names
        assert len(distinct) >= 20
        # the report round-trips and the parser reads it back
        clone = RunReport.from_json(report.to_json())
        assert clone.counters == report.counters
        assert frame.n_events == generated.frame.n_events
