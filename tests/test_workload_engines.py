"""The engine table and the drift engine.

Covers the engine contract end to end: table lookup and error
surfaces, driver resolution order, drift's frozen output at two
scales/seeds, and the steady-state convergence of its file population
under create/delete churn.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.trace.records import EventKind, OpenFlags
from repro.workload import (
    DriftConfig,
    DriftEngine,
    DriftMix,
    SyntheticEngine,
    WorkloadGenerator,
    ames1993,
    available_engines,
    available_scenarios,
    drift_scenario,
    get_engine,
    get_scenario,
    population_curve,
    validate_workload,
)
from repro.workload.validate import engine_of


def _digest(frame):
    import hashlib

    h = hashlib.sha256()
    h.update(frame.events.tobytes())
    h.update(frame.jobs.data.tobytes())
    h.update(frame.files.data.tobytes())
    return h.hexdigest()


class TestEngineRegistry:
    def test_builtins_available(self):
        names = available_engines()
        assert {"synthetic", "drift"} <= set(names)
        assert names == sorted(names)

    def test_get_engine_resolves_builtins(self):
        assert get_engine("synthetic") is SyntheticEngine
        assert get_engine("drift") is DriftEngine

    def test_unknown_engine_lists_available(self):
        with pytest.raises(WorkloadError, match="drift.*synthetic"):
            get_engine("nope")

    def test_validation_profiles(self):
        assert SyntheticEngine.validation == "marginals"
        assert DriftEngine.validation == "structural"


class TestDriverResolution:
    def test_scenario_engine_field_wins_by_default(self):
        gen = WorkloadGenerator(drift_scenario(0.001))
        assert gen.engine_name == "drift"
        assert isinstance(gen.engine, DriftEngine)

    def test_explicit_engine_overrides_scenario(self):
        gen = WorkloadGenerator(ames1993(0.001), engine="drift")
        assert gen.engine_name == "drift"

    def test_default_is_synthetic(self):
        gen = WorkloadGenerator(ames1993(0.001))
        assert gen.engine_name == "synthetic"

    def test_unknown_engine_raises(self):
        with pytest.raises(WorkloadError, match="unknown workload engine"):
            WorkloadGenerator(ames1993(0.001), engine="nope")

    def test_scenario_registry(self):
        assert {"ames1993", "tiny", "drift"} <= set(available_scenarios())
        assert get_scenario("drift", 0.001).engine == "drift"
        with pytest.raises(WorkloadError, match="available"):
            get_scenario("nope")


class TestDriftMix:
    def test_default_normalizes(self):
        assert pytest.approx(DriftMix().probabilities().sum()) == 1.0

    def test_steady_state_fraction(self):
        mix = DriftMix(create=0.3, delete=0.1)
        assert pytest.approx(mix.steady_state_live_fraction) == 0.75
        assert DriftMix(create=0.0, delete=0.0).steady_state_live_fraction == 1.0

    def test_from_mapping_defaults_unlisted_to_zero(self):
        mix = DriftMix.from_mapping({"read": 1.0, "create": 1.0})
        assert mix.write == 0.0 and mix.delete == 0.0

    def test_from_mapping_rejects_unknown_ops(self):
        with pytest.raises(WorkloadError, match="unknown drift ops"):
            DriftMix.from_mapping({"truncate": 1.0})

    def test_rejects_bad_weights(self):
        with pytest.raises(WorkloadError, match="non-negative"):
            DriftMix(read=-1.0)
        with pytest.raises(WorkloadError, match="positive weight"):
            DriftMix.from_mapping({})

    def test_from_file(self, tmp_path):
        path = tmp_path / "mix.json"
        path.write_text('{"read": 2, "write": 1, "create": 1, "delete": 1}')
        mix = DriftMix.from_file(path)
        assert mix.read == 2.0 and mix.stat == 0.0
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(WorkloadError, match="JSON object"):
            DriftMix.from_file(bad)
        with pytest.raises(WorkloadError, match="cannot read"):
            DriftMix.from_file(tmp_path / "absent.json")


class TestDriftConfig:
    def test_from_options_rejects_unknown_keys(self):
        with pytest.raises(WorkloadError, match="unknown drift options"):
            DriftConfig.from_options({"tenant_count": 3})

    def test_nodes_per_tenant_power_of_two(self):
        with pytest.raises(WorkloadError, match="power of two"):
            DriftConfig.from_options({"nodes_per_tenant": 3})

    def test_mix_forms(self, tmp_path):
        assert DriftConfig.from_options({"mix": {"read": 1.0}}).mix.read == 1.0
        path = tmp_path / "m.json"
        path.write_text('{"write": 1.0}')
        assert DriftConfig.from_options({"mix": str(path)}).mix.write == 1.0
        with pytest.raises(WorkloadError, match="mix must be"):
            DriftConfig.from_options({"mix": 42})


#: (events, _digest) of drift runs, captured while per-tenant emission
#: could still fan out across processes (and matched the serial bytes)
_FROZEN_DRIFT_DIGESTS = {
    (0.005, 3): (
        12_442,
        "812349baa1e0a17b8f2d958083c4c98badf14f5dffafd092ca459aafebb1eaa4",
    ),
    (0.01, 7): (
        26_893,
        "bb888c92821515df65a764c1a9e9ab8ad5ce75d830f71e921f4c112f7b7e3373",
    ),
}


@pytest.fixture(scope="module")
def drift_run():
    return WorkloadGenerator(drift_scenario(0.005), seed=3).run("direct")


class TestDriftEngine:
    def test_structurally_valid(self, drift_run):
        frame = drift_run.frame
        frame.validate()
        assert frame.n_events > 0
        assert frame.header.notes == "seed=3 engine=drift"
        assert drift_run.n_jobs == DriftConfig().tenants
        assert drift_run.n_traced_jobs == DriftConfig().tenants

    def test_namespace_bounded(self, drift_run):
        cfg = DriftConfig()
        fids = drift_run.frame.events["file"]
        assert fids.max() < cfg.tenants * cfg.files_per_tenant
        files = drift_run.frame.files.data["file"]
        assert len(np.unique(files)) == len(files)

    def test_tenant_lanes_disjoint(self, drift_run):
        cfg = DriftConfig()
        ev = drift_run.frame.events
        for t in range(cfg.tenants):
            lane = ev["node"][ev["job"] == t]
            assert lane.min() >= t * cfg.nodes_per_tenant
            assert lane.max() < (t + 1) * cfg.nodes_per_tenant

    @pytest.mark.parametrize("scale, seed", list(_FROZEN_DRIFT_DIGESTS))
    def test_frozen_digest(self, scale, seed):
        n_events, digest = _FROZEN_DRIFT_DIGESTS[(scale, seed)]
        frame = WorkloadGenerator(drift_scenario(scale), seed=seed).run(
            "direct"
        ).frame
        assert frame.n_events == n_events
        assert _digest(frame) == digest

    def test_seed_changes_bytes(self, drift_run):
        other = WorkloadGenerator(drift_scenario(0.005), seed=4).run("direct")
        assert _digest(other.frame) != _digest(drift_run.frame)

    def test_full_pipeline_rejected(self):
        with pytest.raises(WorkloadError, match="only the 'direct'"):
            WorkloadGenerator(drift_scenario(0.001)).run("full")

    def test_plan_returns_tenant_jobs(self):
        gen = WorkloadGenerator(drift_scenario(0.001), seed=0)
        placed = gen.plan()
        assert len(placed) == DriftConfig().tenants
        assert all(p.spec.traced for p in placed)

    def test_deletes_and_creates_present(self, drift_run):
        ev = drift_run.frame.events
        assert (ev["kind"] == int(EventKind.DELETE)).sum() > 0
        creates = (ev["kind"] == int(EventKind.OPEN)) & (
            ev["flags"] & int(OpenFlags.CREATE) != 0
        )
        assert creates.sum() > 0


class TestDriftSteadyState:
    """Create/delete churn drives the live population to c/(c+d)."""

    def _final_population(self, mix, seed, hours=2.0):
        scenario = drift_scenario(hours / 156.0).with_engine(
            "drift", mix=mix, tenants=2, files_per_tenant=128
        )
        wl = WorkloadGenerator(scenario, seed=seed).run("direct")
        _, pop = population_curve(wl.frame)
        return pop, 2 * 128 * DriftConfig.from_options(
            scenario.engine_options
        ).mix.steady_state_live_fraction

    @pytest.mark.parametrize("seed", [0, 9])
    def test_population_converges_to_equilibrium(self, seed):
        pop, target = self._final_population(
            {"read": 0.3, "create": 0.2, "delete": 0.2, "stat": 0.3}, seed
        )
        # equilibrium here is c/(c+d) = 0.5; the tail of the curve must
        # hover around it (binomial noise at n=256 is ~±8 at 1 sigma)
        tail = pop[len(pop) // 2:]
        assert abs(tail.mean() - target) < 0.15 * target
        assert abs(float(pop[-1]) - target) < 0.25 * target

    def test_create_heavy_mix_fills_namespace(self):
        pop, target = self._final_population(
            {"read": 0.4, "create": 0.5, "delete": 0.1}, seed=1
        )
        assert target == pytest.approx(2 * 128 * 5 / 6)
        assert pop[-1] > 0.75 * 2 * 128

    def test_population_is_monotone_without_deletes(self):
        pop, _ = self._final_population(
            {"read": 0.5, "create": 0.5}, seed=2
        )
        assert (np.diff(pop) >= 0).all()


class TestEngineAwareValidation:
    def test_drift_gets_structural_profile(self, drift_run):
        report = validate_workload(drift_run.frame)
        assert report.profile == "structural"
        assert report.engine == "drift"
        assert report.all_ok
        assert any("marginal checks skipped" in n for n in report.notes)
        assert "marginal checks skipped" in report.render()

    def test_stored_trace_keeps_its_engine(self, drift_run, tmp_path):
        from repro.trace.store import TraceStore, write_store

        path = tmp_path / "d.store"
        write_store(drift_run.frame, path)
        with TraceStore(path) as store:
            frame = store.frame()
        assert engine_of(frame) == "drift"
        assert validate_workload(frame).engine == "drift"

    def test_synthetic_gets_marginals(self):
        wl = WorkloadGenerator(ames1993(0.01), seed=7).run("direct")
        report = validate_workload(wl.frame)
        assert report.profile == "marginals"
        assert not report.notes

    def test_explicit_engine_overrides_notes(self, drift_run):
        report = validate_workload(drift_run.frame, engine="synthetic")
        assert report.profile == "marginals"

    def test_explicit_unknown_engine_raises(self, drift_run):
        with pytest.raises(WorkloadError, match="unknown workload engine"):
            validate_workload(drift_run.frame, engine="nope")

    def test_noteless_header_defaults_to_synthetic(self, drift_run):
        from repro.trace.frame import TraceFrame
        from repro.trace.records import TraceHeader

        frame = drift_run.frame
        stripped = TraceFrame(
            frame.events, jobs=frame.jobs, files=frame.files,
            header=TraceHeader(notes=""),
        )
        assert engine_of(stripped) == "synthetic"

    def test_unknown_inferred_engine_is_structural(self, drift_run):
        from repro.trace.frame import TraceFrame
        from repro.trace.records import TraceHeader

        frame = drift_run.frame
        foreign = TraceFrame(
            frame.events, jobs=frame.jobs, files=frame.files,
            header=TraceHeader(notes="engine=somebody-elses"),
        )
        report = validate_workload(foreign)
        assert report.profile == "structural"


class TestDriftDownstream:
    """A drift trace flows through the analysis layers unchanged."""

    def test_characterize(self, drift_run):
        from repro.core import characterize

        text = characterize(drift_run.frame).render()
        assert text

    def test_characterize_streaming_identical(self, drift_run, tmp_path):
        from repro.core import characterize
        from repro.trace.store import TraceStore, write_store

        path = tmp_path / "d.store"
        write_store(drift_run.frame, path, chunk_size=512)
        with TraceStore(path) as store:
            assert characterize(store).render() == characterize(
                drift_run.frame
            ).render()

    def test_cache_sweep(self, drift_run):
        from repro.caching import sweep_lines

        curves = sweep_lines(
            drift_run.frame, buffer_counts=[64, 256], lines=["lru"]
        )
        assert curves and all(len(c.hit_rates) == 2 for c in curves)

    def test_figures_render_or_skip(self, drift_run):
        from repro.core.figures import render_all

        out = render_all(drift_run.frame)
        assert "fig9" in out
