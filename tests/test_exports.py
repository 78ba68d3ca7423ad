"""Export contract of ``repro`` and its six subpackages, and the
cold-import guard that keeps set-up paying only for what a run uses.

Counts and names only, no wall clock.  Each package names its
re-exports once, in an ``{home module: names}`` table; a name resolves
on first access to the object its home module defines.  The subprocess
checks run in fresh interpreters, since this one has long since
imported everything.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ("repro", "repro.sim", "repro.consensus", "repro.core",
            "repro.harness", "repro.obs", "repro.live")

#: How many names each ``__all__`` exports; a package that gains or
#: loses one must say so here.
EXPORT_COUNTS = {"repro": 53, "repro.sim": 64, "repro.consensus": 41,
                 "repro.core": 33, "repro.harness": 30, "repro.obs": 18,
                 "repro.live": 20}

#: Modules no benchmark run touches: a run must not pay to import them.
UNUSED_BY_RUNS = (
    "repro.harness.bench", "repro.harness.soak", "repro.harness.fuzz",
    "repro.harness.plot", "repro.harness.stats", "repro.harness.tables",
    "repro.obs.report", "repro.obs.timeliness", "repro.consensus.checker",
    "repro.consensus.workload", "repro.consensus.rotating", "repro.core.qos",
    "repro.core.relay", "repro.sim.faults", "repro.sim.traceview")


def _table(package: str) -> dict[str, tuple[str, ...]]:
    return importlib.import_module(package)._EXPORTS


class TestExportContract:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_names_resolve_to_their_home_objects(self, package: str) -> None:
        module = importlib.import_module(package)
        for home, names in _table(package).items():
            defining = importlib.import_module(home)
            for name in names:
                assert getattr(module, name) is getattr(defining, name), \
                    f"{package}.{name} is not {home}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_the_table(self, package: str) -> None:
        module = importlib.import_module(package)
        names = [name for names in _table(package).values() for name in names]
        extra = ["__version__"] if package == "repro" else []
        assert module.__all__ == extra + names
        assert len(set(module.__all__)) == EXPORT_COUNTS[package]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_every_export(self, package: str) -> None:
        module = importlib.import_module(package)
        assert set(dir(module)) >= set(module.__all__)

    def test_star_import_binds_exactly_all(self) -> None:
        namespace: dict = {}
        exec("from repro.sim import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(repro.sim.__all__)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_names_the_package(self, package: str) -> None:
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"'{package}'.*'Nonesuch'"):
            module.Nonesuch  # noqa: B018

    # The deleted LogWorkload shim staying deleted (hasattr is False)
    # is test_public_api.py::TestLoadSurface::test_deprecated_shim_is_gone.

    def test_submodule_import_does_not_shadow_an_export(self) -> None:
        # ``repro.harness`` exports the functions ``fuzz`` and ``soak``,
        # which share their home modules' names.
        import repro.harness.fuzz
        import repro.harness.soak

        assert callable(repro.harness.fuzz) and callable(repro.harness.soak)
        assert repro.harness.fuzz is sys.modules["repro.harness.fuzz"].fuzz
        assert repro.harness.soak is sys.modules["repro.harness.soak"].soak


def _fresh(code: str) -> list[str]:
    """``repro`` modules loaded after running ``code`` in a new interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (f"import sys\nsys.path.insert(0, {src!r})\n{code}\n"
             "import json\nprint(json.dumps(sorted(\n"
             "    m for m in sys.modules if m.startswith('repro.'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


class TestColdImports:
    def test_import_repro_loads_no_submodule(self) -> None:
        assert _fresh("import repro") == []

    def test_submodule_attribute_of_a_fresh_package(self) -> None:
        loaded = _fresh("import repro.sim\nrepro.sim.engine.Simulation")
        assert "repro.sim.engine" in loaded

    def test_omega_scenario_loads_no_consensus_or_reporting(self) -> None:
        loaded = _fresh("from repro import OmegaScenario, OmegaConfig")
        unwanted = ("repro.consensus", "repro.load", "repro.live",
                    "repro.obs.report", "repro.harness.bench",
                    "repro.harness.soak", "repro.harness.fuzz")
        assert "repro.harness.scenarios" in loaded
        assert not [name for name in loaded
                    if name.startswith(unwanted)]

    def test_building_a_load_run_loads_only_what_it_runs(self) -> None:
        loaded = _fresh("from repro import LoadSpec\n"
                        "LoadSpec(duration=5.0, horizon=30.0).build()")
        assert "repro.load" in loaded
        assert not [name for name in loaded
                    if name in UNUSED_BY_RUNS or name.startswith("repro.live")]
