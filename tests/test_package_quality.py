"""Package-level quality gates: API surface, docstrings, error hierarchy."""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    AutodiffError,
    DatasetError,
    DeviceOOMError,
    FilterError,
    GraphError,
    ReproError,
    TrainingError,
)

SUBPACKAGES = ["autodiff", "nn", "graph", "filters", "models", "datasets",
               "training", "tasks", "spectral", "runtime", "bench"]


def walk_modules():
    for module_info in pkgutil.walk_packages(repro.__path__,
                                             prefix="repro."):
        if "__main__" in module_info.name:
            continue
        yield importlib.import_module(module_info.name)


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackages_importable(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module.__doc__, f"repro.{name} missing a module docstring"

    def test_all_exports_resolve(self):
        for module in walk_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_every_module_has_docstring(self):
        for module in walk_modules():
            assert module.__doc__, f"{module.__name__} missing docstring"

    def test_public_classes_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if not obj.__doc__:
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented

    def test_public_functions_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not obj.__doc__:
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [GraphError, FilterError, AutodiffError,
                                     DatasetError, TrainingError,
                                     DeviceOOMError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_oom_carries_context(self):
        error = DeviceOOMError(100, 50, 120)
        assert error.requested_bytes == 100
        assert error.used_bytes == 50
        assert error.capacity_bytes == 120
        assert "out of memory" in str(error)

    def test_repro_error_catchable_for_all(self):
        with pytest.raises(ReproError):
            raise FilterError("x")


class TestImportFootprint:
    def test_entry_points_leave_scipy_linalg_unloaded(self):
        """``scipy.sparse.linalg`` (and ``scipy.linalg`` behind it) is
        imported by its one caller, not by every process — and every pool
        worker — that imports the package and the training entry points."""
        code = ("import sys, repro, repro.tasks.node_classification, "
                "repro.bench.experiments; print(sorted(m for m in "
                "('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules))")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
