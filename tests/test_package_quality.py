"""Package-level quality gates: API surface, docstrings, error hierarchy,
the two store implementations, and DESIGN.md's module map."""

from __future__ import annotations

import ast
import fnmatch
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


class TestDesignMap:
    """DESIGN.md's package inventory (§3) names only modules that exist:
    a deleted or renamed module must leave the map with it."""

    SRC = Path(repro.__file__).resolve().parent
    #: A tree entry: a directory or a ``.py`` path at the names column
    #: (indent 2 under ``src/repro/``, 4 inside a directory).
    ENTRY = re.compile(r"^( {2}| {4})([\w/]+\.py|\w+/)(?:\s|$)")

    def _listed(self):
        text = (self.SRC.parents[1] / "DESIGN.md").read_text(encoding="utf-8")
        section = text.split("## 3. Package inventory", 1)[1]
        directory = ""
        for line in section.split("\n## ", 1)[0].splitlines():
            match = self.ENTRY.match(line)
            if match is None:
                continue
            indent, name = match.groups()
            if len(indent) == 4:
                yield directory + name
            elif name.endswith("/"):
                directory = name
            else:
                yield name

    def test_every_listed_module_exists(self):
        listed = list(self._listed())
        assert len(listed) > 50, listed
        missing = [path for path in listed if not (self.SRC / path).is_file()]
        assert not missing, missing


class TestRunState:
    """Run state has one owner: :mod:`repro.runtime.context` installs what
    is active for a run, and every consumer reads ``context.current()``.
    A module global that code rebinds is a second owner — a switch a
    ``spawn`` worker never sees — so the runtime rebinds none outside the
    context (and the pool's last-sweep stats)."""

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
        paths = sorted((self.SRC / "runtime").rglob("*.py"))
        offenders = []
        for path in paths:
            relative = path.relative_to(self.SRC).as_posix()
            for function, line in self._globals(path):
                if (relative, None) not in self.ALLOWED \
                        and (relative, function) not in self.ALLOWED:
                    offenders.append(f"{relative}:{line} ({function})")
        assert not offenders, offenders


class TestEveryDefinitionHasACaller:
    """A ``src/repro`` function, class or module-level UPPER_CASE table
    that nothing outside ``tests/`` names is dead: a test alone does not
    keep a definition. A reference is a name or an attribute in
    ``src``, ``benchmarks`` or ``examples``, outside the definition's
    own body; an import or an ``__all__`` entry re-exports, it does not
    call. Dunders run by protocol and are not checked."""

    ROOT = Path(repro.__file__).resolve().parents[2]
    SRC = ROOT / "src" / "repro"
    #: Module -> why its definitions stay without a caller yet.
    ALLOWED = {
        "graph/families.py": "graphs with closed-form spectra, the inputs "
                             "of the float64 spectral reference "
                             "(ROADMAP item 11)",
        "spectral/response.py": "frequency-response readouts that the "
                                "reference's per-band residuals use "
                                "(ROADMAP item 11(d))",
    }
    DUNDER = re.compile(r"^__\w+__$")

    def _references(self):
        """name -> [(path, line)] over every program file."""
        refs = {}
        for directory in ("src", "benchmarks", "examples"):
            for path in (self.ROOT / directory).rglob("*.py"):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    name = (node.id if isinstance(node, ast.Name) else
                            node.attr if isinstance(node, ast.Attribute)
                            else None)
                    if name is not None:
                        refs.setdefault(name, []).append((path, node.lineno))
        return refs

    def _definitions(self, path):
        """(name, first line, last line) of each definition to check."""
        def visit(body, top):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    yield node.name, node.lineno, node.end_lineno
                    if isinstance(node, ast.ClassDef):
                        yield from visit(node.body, False)
                elif top and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, ast.Name) \
                                and target.id.isupper():
                            yield target.id, node.lineno, node.end_lineno

        tree = ast.parse(path.read_text(encoding="utf-8"))
        return [entry for entry in visit(tree.body, True)
                if not self.DUNDER.match(entry[0])]

    def test_allowlist_names_existing_modules(self):
        for module in self.ALLOWED:
            assert (self.SRC / module).is_file(), module

    def test_no_definition_is_reached_only_by_tests(self):
        refs = self._references()
        dead = []
        for path in sorted(self.SRC.rglob("*.py")):
            relative = path.relative_to(self.SRC).as_posix()
            if relative in self.ALLOWED:
                continue
            for name, first, last in self._definitions(path):
                callers = [ref for ref in refs.get(name, ())
                           if not (ref[0] == path and first <= ref[1] <= last)]
                if not callers:
                    dead.append(f"src/repro/{relative}:{first}:{name}")
        assert not dead, dead


class TestEveryParameterHasASetter:
    """A defaulted parameter or dataclass field in ``src/repro`` that no
    program sets is a configuration the benchmark never runs: its default
    belongs in the code. A setter is a call in ``src``, ``benchmarks`` or
    ``examples`` that passes the knob by name or by position, resolved
    through ``super().__init__``, an inherited ``__init__`` and
    ``TABLE[name](...)`` of a dict literal; a ``**`` forward (through a
    function's own ``**kwargs`` it carries its callers' names, any other
    mapping sets every parameter); a keyword passed to a factory reached
    through a variable or an attribute (an indirect call sets the
    parameters of every function or class its file names as a value);
    ``dataclasses.replace`` or an attribute store for a field; or
    membership in the CLI's ``EXPERIMENTS`` runners, whose parameters
    ``selection_kwargs`` sets.
    Dunder-named knobs, ``self`` and ``init=False`` fields are not
    checked. Like :class:`TestEveryDefinitionHasACaller` this reads names,
    not types."""

    ROOT = Path(repro.__file__).resolve().parents[2]
    SRC = ROOT / "src" / "repro"
    #: ``module:qualname(parameter)`` glob -> why it stays without a setter.
    ALLOWED = {
        "filters/*.py:*Filter.__init__(*)":
            "filter hyperparameters: Table 1's registry-declared tunables",
        "training/loop.py:TrainConfig(*)":
            "the paper's training protocol; every field is fingerprinted "
            "into the run manifest",
        "graph/graph.py:Graph.laplacian(self_loops)":
            "the self-loop Laplacian of the float64 spectral reference "
            "(ROADMAP item 11)",
        "graph/families.py:*":
            "graphs with closed-form spectra (ROADMAP item 11)",
        "spectral/response.py:*":
            "frequency-response readouts of the spectral reference "
            "(ROADMAP item 11(d))",
        "*._on_collect(_key)":
            "a closure default that binds the key, not a knob",
        "autodiff/tensor.py:Tensor.backward(grad)":
            "the cotangent of a vector-Jacobian product; the basis golden "
            "(tests/test_basis_golden.py) seeds every grad_x digest with it",
        "tasks/link_prediction.py:run_link_prediction(device_capacity_gib)":
            "the training golden's OOM-boundary sweep "
            "(tests/test_training_golden.py) drives every entry point at a "
            "device capacity",
    }

    @staticmethod
    def _key(node):
        return (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)

    @staticmethod
    def _is_dataclass(node):
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if TestEveryParameterHasASetter._key(target) == "dataclass":
                return True
        return False

    def _knobs(self):
        """(module, owner, callee key, name, position, field?) per knob;
        position is the index among the callee's positional arguments, or
        None for a keyword-only parameter."""
        knobs = []

        def visit(body, module, cls, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    if self._is_dataclass(node):
                        fields = [s for s in node.body
                                  if isinstance(s, ast.AnnAssign)
                                  and isinstance(s.target, ast.Name)
                                  and "ClassVar" not in ast.unparse(
                                      s.annotation)]
                        for position, item in enumerate(fields):
                            if item.value is None or "init=False" in \
                                    ast.unparse(item.value):
                                continue
                            knobs.append((module, prefix + node.name,
                                          node.name, item.target.id,
                                          position, True))
                    visit(node.body, module, node, prefix + node.name + ".")
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    method = cls is not None and not any(
                        self._key(d) == "staticmethod"
                        for d in node.decorator_list)
                    key = cls.name if cls is not None \
                        and node.name == "__init__" else node.name
                    first = len(positional) - len(args.defaults)
                    for index, arg in enumerate(positional[first:], first):
                        knobs.append((module, prefix + node.name, key,
                                      arg.arg, index - method, False))
                    for arg, default in zip(args.kwonlyargs,
                                            args.kw_defaults):
                        if default is not None:
                            knobs.append((module, prefix + node.name, key,
                                          arg.arg, None, False))
                    visit(node.body, module, None,
                          prefix + node.name + ".")
                elif isinstance(node, ast.stmt):  # defs inside if/with/...
                    visit(ast.iter_child_nodes(node), module, cls, prefix)

        for path in sorted(self.SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            visit(tree.body, path.relative_to(self.SRC).as_posix(), None, "")
        return [knob for knob in knobs if not knob[3].startswith("__")]

    def _program(self):
        calls = []   # [callee, keywords, positional, **, forwarder, file]
        named = {}   # file -> names used there as a value (factories)
        defined = set()
        stores = set()  # attribute names assigned to
        tables = {}     # dict name -> the keys of its values
        bases = {}      # class without an ``__init__`` -> its first base

        def record(call, function, cls, path):
            args = list(call.args)
            key = self._key(call.func)
            if key == "partial" and args:
                key, args = self._key(args[0]), args[1:]
            elif key == "__init__" and isinstance(call.func.value, ast.Call) \
                    and self._key(call.func.value.func) == "super":
                key = self._key(cls.bases[0]) if cls and cls.bases else None
            elif key == "cls" and cls is not None:
                key = cls.name
            elif isinstance(call.func, ast.Subscript):
                key = ("table", self._key(call.func.value))
            # ``f(a, *rest)`` may fill every positional parameter.
            starred = any(isinstance(arg, ast.Starred) for arg in args)
            positional = float("inf") if starred else len(args)
            calls.append([key, {k.arg for k in call.keywords if k.arg},
                          positional,
                          any(k.arg is None for k in call.keywords),
                          function, path])

        def visit(node, function, cls, skip, path):
            for child in ast.iter_child_nodes(node):
                if id(child) in skip:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = cls.name if cls is not None \
                        and child.name == "__init__" else child.name
                    defined.add(child.name)
                    visit(child, key if child.args.kwarg else None, cls, skip,
                          path)
                    continue
                if isinstance(child, ast.ClassDef):
                    if child.bases and not any(
                            getattr(item, "name", None) == "__init__"
                            for item in child.body):
                        bases[child.name] = self._key(child.bases[0])
                    defined.add(child.name)
                    visit(child, function, child, skip, path)
                    continue
                if isinstance(child, (ast.Assign, ast.AnnAssign)) \
                        and isinstance(child.value, ast.Dict):
                    for target in (child.targets if isinstance(
                            child, ast.Assign) else [child.target]):
                        tables[self._key(target)] = {
                            self._key(value.elts[0] if isinstance(
                                value, ast.Tuple) else value)
                            for value in child.value.values}
                if isinstance(child, ast.Attribute) \
                        and isinstance(child.ctx, ast.Store):
                    stores.add(child.attr)
                if isinstance(child, ast.Call):
                    # The callee is called, not named; what it hangs off is.
                    record(child, function, cls, path)
                    skip = skip | {id(child.func)}
                    if isinstance(child.func, ast.Attribute):
                        visit(child.func, function, cls, skip, path)
                if isinstance(child, (ast.Name, ast.Attribute)):
                    named.setdefault(path, set()).add(self._key(child))
                visit(child, function, cls, skip, path)

        for directory in ("src", "benchmarks", "examples"):
            for path in (self.ROOT / directory).rglob("*.py"):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                annotations = set()
                for node in ast.walk(tree):
                    for note in (getattr(node, "annotation", None),
                                 getattr(node, "returns", None)):
                        if isinstance(note, ast.AST):
                            annotations.add(id(note))
                visit(tree, None, None, annotations, path)
        # ``TABLE[name](...)`` calls each factory of the table, and the
        # CLI's ``selection_kwargs`` sets every parameter of its runners.
        for call in calls:
            if isinstance(call[0], tuple):
                calls.extend([key] + call[1:]
                             for key in tables.get(call[0][1], ()))
        # A class without an ``__init__`` constructs through its base's.
        for call in calls:
            if call[0] in bases:
                calls.append([bases[call[0]]] + call[1:])
        runners = tables.get("EXPERIMENTS", set())
        # A ``**`` forward through a function's own ``**kwargs`` carries
        # the names its callers pass (three levels deep).
        by_callee = {}
        for call in calls:
            by_callee.setdefault(call[0], []).append(call)
        for _ in range(3):
            for call in calls:
                if call[3] and call[4] is not None:
                    for other in by_callee.get(call[4], ()):
                        call[1] = call[1] | other[1]
        return calls, named, defined, stores, runners

    def _unset(self):
        knobs = self._knobs()
        calls, named, defined, stores, runners = self._program()
        direct = defined | {"replace"}  # callees that are not factories
        unset = []
        for module, owner, key, name, position, is_field in knobs:
            if key in runners or (is_field and name in stores):
                continue
            for callee, keywords, positional, forward, forwarder, path \
                    in calls:
                if callee == key:
                    if name in keywords or (forward and forwarder is None) \
                            or (position is not None
                                and position < positional):
                        break
                elif callee == "replace" and is_field and name in keywords:
                    break
                elif callee not in direct \
                        and key in named.get(path, ()) and name in keywords:
                    break
            else:
                label = f"{module}:{owner}({name})"
                if not any(fnmatch.fnmatchcase(label, pattern)
                           for pattern in self.ALLOWED):
                    unset.append(label)
        return unset

    def test_every_allowlist_entry_matches_a_knob(self):
        labels = [f"{module}:{owner}({name})"
                  for module, owner, _, name, _, _ in self._knobs()]
        stale = [pattern for pattern in self.ALLOWED
                 if not fnmatch.filter(labels, pattern)]
        assert not stale, stale

    def test_every_knob_has_a_program_setter(self):
        unset = self._unset()
        assert not unset, unset
