"""Package-level quality gates: API surface, docstrings, error hierarchy,
and the two store implementations."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
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


class TestStores:
    """Two store implementations: :class:`repro.runtime.cache.LRUCache`
    for every in-memory memo, :mod:`repro.runtime.files` for every file
    on disk. A new store is a client of one of them, not a third."""

    SRC = Path(repro.__file__).resolve().parent

    def _sources(self):
        return sorted(self.SRC.rglob("*.py"))

    def test_only_the_file_tier_moves_files_into_place(self):
        writers = re.compile(r"\bos\.(replace|link)\b|\bmkstemp\b")
        offenders = [
            f"{path.relative_to(self.SRC)}:{number}"
            for path in self._sources()
            if path != self.SRC / "runtime" / "files.py"
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if writers.search(line)]
        assert not offenders, offenders

    def test_no_store_subclasses(self):
        offenders = []
        for path in self._sources():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = {getattr(base, "id", getattr(base, "attr", None))
                         for base in node.bases}
                if bases & {"ArrayFiles", "LRUCache"}:
                    offenders.append(f"{path.relative_to(self.SRC)}:"
                                     f"{node.name}")
        assert not offenders, offenders


class TestRunState:
    """Run state has one owner: :mod:`repro.runtime.context` installs what
    is active for a run, and every consumer reads ``context.current()``.
    A module global that code rebinds is a second owner — a switch a
    ``spawn`` worker never sees — so the runtime and the live channel
    rebind none outside the context (and the pool's last-sweep stats)."""

    SRC = Path(repro.__file__).resolve().parent
    ALLOWED = {("runtime/context.py", None),
               ("runtime/pool.py", "_record_run_stats")}

    def _globals(self, path):
        """(enclosing function, line) of each ``global`` statement."""
        found = []

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Global):
                    found.append((function, child.lineno))
                name = child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    else function
                visit(child, name)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
        return found

    def test_only_the_context_rebinds_run_state(self):
        paths = sorted((self.SRC / "runtime").rglob("*.py")) \
            + [self.SRC / "telemetry" / "live.py"]
        offenders = []
        for path in paths:
            relative = path.relative_to(self.SRC).as_posix()
            for function, line in self._globals(path):
                if (relative, None) not in self.ALLOWED \
                        and (relative, function) not in self.ALLOWED:
                    offenders.append(f"{relative}:{line} ({function})")
        assert not offenders, offenders
