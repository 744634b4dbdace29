"""What each entry point imports, and the lazy package exports behind it.

A package ``__init__`` re-exports its names through
:func:`repro._exports.lazy_exports`, so an entry point loads only the
modules its command runs.  The import-set tests run in a fresh
interpreter, because this test process has long since loaded the whole
library; none of them times anything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the packages whose ``__init__`` re-exports lazily
LAZY_PACKAGES = (
    "repro",
    "repro.trace",
    "repro.core",
    "repro.caching",
    "repro.workload",
    "repro.service",
    "repro.cfs",
)

#: the generation entry: build a generator and run the direct pipeline
GENERATE = (
    "from repro.workload import WorkloadGenerator, get_scenario\n"
    "gen = WorkloadGenerator(get_scenario('ames1993', 0.01), seed=7)\n"
    "gen.run('direct')\n"
)

#: prints the ``repro`` modules the interpreter has loaded
LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
)


def fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON its last line prints."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def within(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def cli(*argv: str) -> str:
    """Code that runs ``repro ARGV`` as ``python -m repro`` does and
    requires it to exit 0."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


class TestEntryPointImports:
    def test_serve_loads_no_generator_machine_or_simulator(self):
        loaded = fresh(cli("serve", "--duration", "0") + LOADED)
        assert "repro.service.daemon" in loaded
        for package in ("repro.workload", "repro.machine", "repro.cfs", "repro.strided"):
            assert within(loaded, package) == []
        assert set(within(loaded, "repro.caching")) <= {
            "repro.caching", "repro.caching.policies",
        }
        # the parser reads the figure ids from the package, not the charts
        assert not {"repro.core.figures", "repro.util.plot"} & set(loaded)

    def test_obs_diff_loads_no_analysis(self):
        bench = str(SRC.parent / "benchmarks" / "BENCH_cache_sweep.json")
        loaded = fresh(cli("obs", "diff", bench, bench) + LOADED)
        assert "repro.obs.regress" in loaded
        assert within(loaded, "repro.core") == ["repro.core"]
        assert "repro.util.plot" not in loaded

    def test_generation_loads_no_analysis_or_full_pipeline(self):
        loaded = fresh(GENERATE + LOADED)
        assert "repro.workload.generator" in loaded
        for package in ("repro.core", "repro.caching", "repro.service", "repro.strided"):
            assert within(loaded, package) == []
        assert not {
            "repro.cfs.filesystem", "repro.cfs.instrument",
            "repro.trace.collector", "repro.trace.writer",
            "repro.trace.postprocess",
        } & set(loaded)

    def test_characterize_export_loads_its_engine(self):
        # so the first characterize call imports nothing inside a timed stage
        assert "repro.core.streaming" in fresh(
            "from repro.core import characterize\n" + LOADED
        )

    def test_batch_stages_import_only_the_figures_and_cache_engines(self, tmp_path):
        """The modules first loaded inside each stage of the batch path:
        generate + store write, characterize from the store, fig8 + fig9."""
        store = str(tmp_path / "t.store")
        produce, characterize, figures = fresh(
            GENERATE
            + "import json, sys\n"
            "from repro.core import characterize\n"
            "from repro.trace.store import TraceStore, write_store\n"
            "def new(stage):\n"
            "    before = set(sys.modules)\n"
            "    stage()\n"
            "    return sorted(m for m in set(sys.modules) - before if m.startswith('repro'))\n"
            "def produce():\n"
            f"    write_store(gen.run('direct').frame, {store!r})\n"
            "def consume():\n"
            f"    with TraceStore({store!r}) as st:\n"
            "        characterize(st).render()\n"
            "def figures():\n"
            "    from repro.core.figures import figure_series\n"
            f"    frame = TraceStore({store!r}).frame()\n"
            "    figure_series(frame, 'fig8')\n"
            "    figure_series(frame, 'fig9')\n"
            "print(json.dumps([new(produce), new(consume), new(figures)]))\n"
        )
        assert produce == [] and characterize == []
        assert [
            m for m in figures if not m.startswith("repro.caching")
        ] == ["repro.core.figures", "repro.util.plot"]


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_export_is_its_defining_modules_object(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            if export == "__version__":  # the one name a package defines itself
                continue
            value = getattr(package, export)
            if callable(value):  # a class or function names its module
                owners = [sys.modules[value.__module__]]
            else:  # a constant: the submodules that bind it
                owners = [
                    m for m in list(sys.modules.values())
                    if getattr(m, "__name__", "").startswith(name + ".")
                    and vars(m).get(export) is value
                ]
            assert owners, f"no submodule of {name} defines {export}"
            assert all(vars(m)[export] is value for m in owners), export

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error_naming_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(
            AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"
        ):
            package.no_such_name  # noqa: B018

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_star_import_binds_all(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert all(namespace[n] is getattr(package, n) for n in package.__all__)

    def test_dir_lists_exactly_all_before_anything_loads(self):
        # in a fresh interpreter no export is resolved yet, so what dir()
        # adds to the package's own attributes is the export table
        tables = fresh(
            "import importlib, json\n"
            "out = {}\n"
            f"for name in {list(LAZY_PACKAGES)!r}:\n"
            "    p = importlib.import_module(name)\n"
            "    out[name] = [sorted(set(dir(p)) - set(vars(p))),\n"
            "                 sorted(set(p.__all__) - set(vars(p)))]\n"
            "print(json.dumps(out))\n"
        )
        for name, (table, exported) in tables.items():
            assert table and table == exported, name

    @pytest.mark.parametrize("first", [
        "import repro.trace.postprocess, repro.trace.anonymize",
        "from repro.trace.postprocess import DriftModel\n"
        "from repro.trace.anonymize import anonymize as _",
        "from repro.trace import postprocess, anonymize\n"
        "import importlib\n"
        "importlib.import_module('repro.trace.postprocess')\n"
        "importlib.import_module('repro.trace.anonymize')",
    ])
    def test_exports_win_over_same_named_submodules(self, first):
        # repro.trace.postprocess is both a submodule and the function it
        # defines; the package attribute is the function in any order
        kinds = fresh(
            first + "\n"
            "import json\n"
            "import repro.trace\n"
            "from repro.trace import anonymize, postprocess\n"
            "print(json.dumps([type(f).__name__ for f in (\n"
            "    postprocess, anonymize, repro.trace.postprocess, repro.trace.anonymize)]))\n"
        )
        assert kinds == ["function"] * 4
