"""Guard rails and determinism of the workload generator internals."""

import os

import numpy as np
import pytest

import repro.workload.generator as gen_mod
from repro.errors import WorkloadError
from repro.workload import WorkloadGenerator, ames1993, tiny


class TestEventGuard:
    def test_max_events_guard_trips(self, monkeypatch):
        monkeypatch.setattr(gen_mod, "MAX_EVENTS", 100)
        with pytest.raises(WorkloadError, match="exceeds"):
            WorkloadGenerator(tiny(1.5), seed=3).run("direct")

    def test_max_events_guard_trips_before_the_full_replay(self, monkeypatch):
        # the full pipeline replays the emitted events, so the guard trips
        # before the instrumented CFS exists, let alone takes a call
        from repro.cfs.instrument import InstrumentedCFS

        def no_cfs(*args, **kwargs):
            raise AssertionError("built the instrumented CFS past the event guard")

        monkeypatch.setattr(gen_mod, "MAX_EVENTS", 100)
        monkeypatch.setattr(InstrumentedCFS, "__init__", no_cfs)
        with pytest.raises(WorkloadError, match="exceeds"):
            WorkloadGenerator(tiny(1.0), seed=5).run("full")

    def test_columns_accumulator_counts(self):
        cols = gen_mod._Columns()
        cols.add(
            np.array([1.0, 2.0]), np.array([0, 1]), job=0, file=0,
            kind=4, offset=0, size=8,
        )
        assert cols.n == 2
        cols.add(np.array([]), np.array([]), job=0, file=0, kind=4, offset=0, size=8)
        assert cols.n == 2  # empty adds are no-ops


class TestRunToStore:
    @pytest.mark.parametrize("size", [0, -5])
    def test_bad_chunk_size_fails_before_generating(
        self, size, tmp_path, monkeypatch
    ):
        gen = WorkloadGenerator(tiny(1.0), seed=3)

        def no_run(pipeline):
            raise AssertionError("generated a trace for a bad chunk_size")

        monkeypatch.setattr(gen.engine, "run", no_run)
        path = tmp_path / "x.store"
        with pytest.raises(
            ValueError, match=f"chunk_size must be positive, not {size}"
        ):
            gen.run_to_store(path, chunk_size=size)
        assert not path.exists()


class TestPlanDeterminism:
    def test_plan_is_stable_across_calls(self):
        gen = WorkloadGenerator(tiny(1.0), seed=9)
        placed_a, uses_a = gen.plan()
        placed_b, uses_b = gen.plan()
        assert [p.job for p in placed_a] == [p.job for p in placed_b]
        assert set(uses_a) == set(uses_b)
        for job in uses_a:
            names_a = [u.name for u in uses_a[job]]
            names_b = [u.name for u in uses_b[job]]
            assert names_a == names_b

    def test_plan_and_run_agree_on_traced_jobs(self):
        gen = WorkloadGenerator(tiny(1.0), seed=9)
        placed, uses = gen.plan()
        wl = gen.run("direct")
        traced = {p.job for p in wl.placed if p.spec.traced and not p.spec.is_status}
        assert set(uses) == traced


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW"),
    reason="set REPRO_RUN_SLOW=1 for the large-scale smoke test",
)
class TestLargeScale:
    def test_quarter_paper_scale_generates_and_validates(self):
        from repro.workload import validate_workload

        wl = WorkloadGenerator(ames1993(0.25), seed=1).run("direct")
        assert wl.frame.n_events > 500_000
        wl.frame.validate()
        report = validate_workload(wl.frame)
        assert report.passed >= len(report.checks) - 3
