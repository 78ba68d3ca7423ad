"""Public-API contract tests.

The documentation deliverable is enforced, not aspirational: every name
exported through ``__all__`` must resolve, every public module, class,
function and method must carry a docstring, and the curated top-level
re-exports must stay importable.  A rename or an undocumented addition
fails here before it reaches a user.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    name for _, name, __ in pkgutil.walk_packages(repro.__path__, "repro.")
)


def public_modules() -> list[str]:
    return [name for name in MODULES if not name.rsplit(".", 1)[-1]
            .startswith("_")]


class TestExports:
    @pytest.mark.parametrize("module_name", public_modules())
    def test_module_imports(self, module_name: str) -> None:
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", public_modules())
    def test_all_names_resolve(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_top_level_reexports(self) -> None:
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version(self) -> None:
        assert repro.__version__


class TestLoadSurface:
    """The PR-9 additions ride the same top-level re-export contract."""

    def test_new_names_exported(self) -> None:
        for name in ("Batch", "ShardedLog", "LoadSpec", "LoadRun", "LoadOutcome",
                     "ClientFleet", "ZipfSampler"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_deprecated_shim_is_gone(self) -> None:
        # LogWorkload was kept for one release (shim policy), then cut.
        import repro.consensus

        for module in (repro, repro.consensus):
            assert "LogWorkload" not in module.__all__
            assert not hasattr(module, "LogWorkload")

    def test_drive_is_the_one_client_attach_path(self) -> None:
        # A fixed-count drip is a one-client LoadSpec fleet driven onto a
        # system the caller built; the drip's own module is gone.
        assert callable(repro.LoadSpec.drive)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.consensus.workload")

    def test_spec_types_are_frozen(self) -> None:
        import dataclasses

        for cls in (repro.LoadSpec, repro.Batch):
            params = getattr(cls, "__dataclass_params__")
            assert params.frozen, f"{cls.__name__} must be frozen"
            assert dataclasses.is_dataclass(cls)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", public_modules())
    def test_module_docstring(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), \
            f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", public_modules())
    def test_public_items_documented(self, module_name: str) -> None:
        module = importlib.import_module(module_name)
        undocumented: list[str] = []
        for name in getattr(module, "__all__", ()):
            item = getattr(module, name)
            if not (inspect.isclass(item) or inspect.isfunction(item)):
                continue
            if item.__module__ != module_name:
                continue  # re-export; checked at its home module
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(item):
                for member_name, member in vars(item).items():
                    if member_name.startswith("_"):
                        continue
                    if not inspect.isfunction(member):
                        continue
                    if member.__doc__ and member.__doc__.strip():
                        continue
                    # Overrides inherit their contract's documentation
                    # (e.g. ``on_message``, ``plan``, ``apply``).
                    if any(getattr(base, member_name, None) is not None
                           and getattr(base, member_name).__doc__
                           for base in item.__mro__[1:]):
                        continue
                    undocumented.append(f"{name}.{member_name}")
        assert not undocumented, \
            f"{module_name}: undocumented public items: {undocumented}"
